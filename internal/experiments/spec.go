package experiments

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/npb"
	"repro/internal/omp"
)

// A study spec is the one description of a simulator entry point that
// every front end shares: slipd decodes it from a POST /jobs body, the
// sweep CLI builds it from its flags, and both Compile and Execute it
// here, so a rule about what a spec means lives in one place.

// Study kinds: a single kernel run, the paper's static/dynamic suites,
// the fixed-size scaling study, the A–R token sweep, the synthetic-
// workload characterization, the chaos suite (fault-rate sweep with
// verification forced on), and the tasking study (task tree vs loop
// baseline over a team × cut-off grid).
const (
	KindRun          = "run"
	KindStatic       = "static"
	KindDynamic      = "dynamic"
	KindScaling      = "scaling"
	KindTokens       = "tokens"
	KindCharacterize = "characterize"
	KindChaos        = "chaos"
	KindTasks        = "tasks"
)

const validKinds = "run, static, dynamic, scaling, tokens, characterize, chaos, tasks"

// Validation bounds that keep absurd specs from reaching the simulator:
// machine.New accepts 1..64 nodes, and token/rate sweeps beyond these
// sizes would only ever be a typo or a fuzzer.
const (
	defaultNodes     = 16
	maxNodeCount     = 64
	maxTokenCount    = 1024
	maxChaosRates    = 32
	defaultChaosSeed = 42
)

// defaultChaosRates is the sweep used when a chaos spec omits rates.
var defaultChaosRates = []float64{0, 0.01, 0.05, 0.2}

// Default grid for the tasking study when the spec omits the axes.
var defaultTaskTeams, defaultTaskCutoffs = []int{2, 4, 8}, []int{2, 4, 6, 8}

// Spec describes one study. String fields use the same vocabulary as
// the slipsim/sweep CLI flags, parsed by the shared parsers in parse.go.
// Omitted fields take documented defaults.
type Spec struct {
	Kind string `json:"kind"`

	// Single-run fields (kind "run"; Kernel also selects the scaling and
	// token-sweep subject).
	Kernel string `json:"kernel,omitempty"`
	Mode   string `json:"mode,omitempty"`   // single|double|slipstream (default slipstream)
	Sync   string `json:"sync,omitempty"`   // GLOBAL_SYNC|LOCAL_SYNC|NONE (default GLOBAL_SYNC)
	Tokens int    `json:"tokens,omitempty"` // initial token count
	Sched  string `json:"sched,omitempty"`  // static|dynamic|guided (default static)
	Chunk  int    `json:"chunk,omitempty"`  // 0 = kernel default for dynamic/guided

	// Shared fields.
	Scale          string   `json:"scale,omitempty"`   // test|small|paper (default test)
	Nodes          int      `json:"nodes,omitempty"`   // default 16
	Kernels        []string `json:"kernels,omitempty"` // suite filter; empty = all
	SelfInvalidate bool     `json:"self_invalidate,omitempty"`
	Verify         *bool    `json:"verify,omitempty"` // default true

	// Study fields.
	NodeCounts  []int `json:"node_counts,omitempty"`  // kinds "scaling", "tasks" (team sizes)
	TokenCounts []int `json:"token_counts,omitempty"` // kind "tokens"
	Cutoffs     []int `json:"cutoffs,omitempty"`      // kind "tasks" (tree cut-off depths)

	// Faults arms a deterministic fault plan. Kind "run" takes seed, rate,
	// and classes; kind "chaos" takes seed, rates (the sweep), and classes.
	Faults *FaultSpec `json:"faults,omitempty"`

	// Params optionally overrides the simulated machine, in the canonical
	// machine.Params encoding (all fields present). Absent = Table 1
	// defaults.
	Params json.RawMessage `json:"params,omitempty"`
}

// FaultSpec is the faults block of a spec. Seed 0 means the default
// seed; an empty class list arms every class.
type FaultSpec struct {
	Seed    uint64    `json:"seed,omitempty"`
	Rate    float64   `json:"rate,omitempty"`    // kind "run" only
	Rates   []float64 `json:"rates,omitempty"`   // kind "chaos" only
	Classes []string  `json:"classes,omitempty"` // subset of faults.ClassNames()
}

// kindReads lists, per kind, the spec fields (by JSON name) its runner
// reads. Scaling, tokens and characterize build Table-1 machines of
// their own; chaos and tasks force verification on; characterize runs
// the synthetic workloads at their fixed size.
var kindReads = map[string][]string{
	KindRun:          {"kernel", "mode", "sync", "tokens", "sched", "chunk", "scale", "nodes", "self_invalidate", "verify", "faults", "params"},
	KindStatic:       {"scale", "nodes", "kernels", "self_invalidate", "verify", "params"},
	KindDynamic:      {"scale", "nodes", "kernels", "verify", "params"},
	KindScaling:      {"kernel", "scale", "verify", "node_counts"},
	KindTokens:       {"kernel", "scale", "nodes", "verify", "token_counts"},
	KindCharacterize: {"nodes"},
	KindChaos:        {"scale", "nodes", "kernels", "self_invalidate", "faults", "params"},
	KindTasks:        {"scale", "self_invalidate", "node_counts", "cutoffs", "params"},
}

// Reads reports whether studies of kind read the spec field named by its
// JSON name.
func Reads(kind, field string) bool { return slices.Contains(kindReads[kind], field) }

// specFields names every spec field in encoding order, with a test that
// a normalized spec holds the value an absent field normalizes to.
var specFields = []struct {
	name  string
	unset func(*Spec) bool
}{
	{"kernel", func(s *Spec) bool { return s.Kernel == "" }},
	{"mode", func(s *Spec) bool { return s.Mode == "" }},
	{"sync", func(s *Spec) bool { return s.Sync == "" }},
	{"tokens", func(s *Spec) bool { return s.Tokens == 0 }},
	{"sched", func(s *Spec) bool { return s.Sched == "" }},
	{"chunk", func(s *Spec) bool { return s.Chunk == 0 }},
	{"scale", func(s *Spec) bool { return s.Scale == npb.ScaleTest.String() }},
	{"nodes", func(s *Spec) bool { return s.Nodes == defaultNodes }},
	{"kernels", func(s *Spec) bool { return len(s.Kernels) == 0 }},
	{"self_invalidate", func(s *Spec) bool { return !s.SelfInvalidate }},
	{"verify", func(s *Spec) bool { return *s.Verify }},
	{"node_counts", func(s *Spec) bool { return len(s.NodeCounts) == 0 }},
	{"token_counts", func(s *Spec) bool { return len(s.TokenCounts) == 0 }},
	{"cutoffs", func(s *Spec) bool { return len(s.Cutoffs) == 0 }},
	{"faults", func(s *Spec) bool { return s.Faults == nil }},
	{"params", func(s *Spec) bool { return len(s.Params) == 0 }},
}

// Study is a compiled spec: validated, normalized, and resolved to the
// typed values its runner takes. Spec is the one description of the
// study: slipd hashes it into the cache key, and everything Execute
// reads is derived from it.
type Study struct {
	Spec   Spec           // normalized copy (canonical casing, defaults applied)
	opts   Options        // the suite options the spec resolves to
	mode   core.Mode      // kind run
	sync   core.Config    // kind run
	sched  omp.Schedule   // kind run
	faults *faults.Config // armed plan (nil = none); Rate 0 for chaos, which sweeps Spec.Faults.Rates
}

// Compile validates a spec, applies defaults, and normalizes casing, so
// every input error surfaces before anything runs. A field the kind does
// not read must be absent or hold the value an absent field normalizes
// to: two specs that run the same study must not key two results.
func Compile(s Spec) (*Study, error) {
	reads, ok := kindReads[s.Kind]
	if !ok {
		if s.Kind == "" {
			return nil, fmt.Errorf("missing kind (valid: %s)", validKinds)
		}
		return nil, fmt.Errorf("unknown kind %q (valid: %s)", s.Kind, validKinds)
	}
	st := &Study{Spec: s}
	n := &st.Spec

	if n.Scale == "" {
		n.Scale = npb.ScaleTest.String()
	}
	scale, err := npb.ParseScale(n.Scale)
	if err != nil {
		return nil, err
	}
	n.Scale = scale.String()
	if n.Nodes == 0 {
		n.Nodes = defaultNodes
	} else if n.Nodes < 0 {
		return nil, fmt.Errorf("nodes %d invalid", n.Nodes)
	}
	verify := s.Verify == nil || *s.Verify
	n.Verify = &verify
	if n.Kernels, err = normalizeKernels(s.Kernels); err != nil {
		return nil, err
	}

	// The machine: the decoded params block or Table 1, with the spec's
	// node count applied on top. A kind that builds Table-1 machines of
	// its own drops a Table-1 block, so older normalized specs still
	// replay; any other block stays and is refused below.
	p := machine.DefaultParams()
	if len(s.Params) > 0 {
		if p, err = machine.ParamsFromCanonicalJSON(s.Params); err != nil {
			return nil, err
		}
		if err := p.Validate(); err != nil {
			return nil, err
		}
	}
	p.Nodes = n.Nodes
	if err := p.Validate(); err != nil {
		return nil, err
	}
	tableOne := machine.DefaultParams()
	tableOne.Nodes = p.Nodes
	if slices.Contains(reads, "params") {
		if n.Params, err = p.CanonicalJSON(); err != nil {
			return nil, err
		}
	} else if p == tableOne {
		n.Params = nil
	}

	for _, f := range specFields {
		if !slices.Contains(reads, f.name) && !f.unset(n) {
			return nil, fmt.Errorf("kind %q does not read %s (it reads %s)", s.Kind, f.name, strings.Join(reads, ", "))
		}
	}
	st.opts = Options{
		Nodes:          n.Nodes,
		Scale:          scale,
		Kernels:        n.Kernels,
		SelfInvalidate: n.SelfInvalidate,
		Verify:         verify,
		Params:         &p,
	}

	switch s.Kind {
	case KindRun:
		err = st.compileRun()
	case KindScaling:
		if err = st.needKernel(); err == nil {
			err = validateCounts(n.NodeCounts, 1, maxNodeCount, "node_counts")
		}
	case KindTokens:
		if err = st.needKernel(); err == nil {
			err = validateCounts(n.TokenCounts, 0, maxTokenCount, "token_counts")
		}
	case KindChaos:
		err = st.compileChaosFaults()
	case KindTasks:
		if len(n.NodeCounts) == 0 {
			n.NodeCounts = defaultTaskTeams
		}
		if len(n.Cutoffs) == 0 {
			n.Cutoffs = defaultTaskCutoffs
		}
		if err = validateCounts(n.NodeCounts, 1, maxNodeCount, "node_counts"); err == nil {
			err = validateCounts(n.Cutoffs, 0, npb.MaxTreeCutoff, "cutoffs")
		}
		// The runner takes both axes ascending, so either order is one
		// table. Sorted copies leave the caller's slices and the defaults
		// alone.
		n.NodeCounts = sortedInts(n.NodeCounts)
		n.Cutoffs = sortedInts(n.Cutoffs)
	}
	if err != nil {
		return nil, err
	}
	return st, nil
}

// needKernel resolves the spec's kernel to its canonical name.
func (st *Study) needKernel() error {
	if st.Spec.Kernel == "" {
		return fmt.Errorf("kind %q requires a kernel", st.Spec.Kind)
	}
	k, err := npb.ByName(strings.ToUpper(st.Spec.Kernel))
	if err != nil {
		return err
	}
	st.Spec.Kernel = k.Name
	return nil
}

// compileRun resolves a "run" spec's execution configuration.
func (st *Study) compileRun() error {
	n := &st.Spec
	if err := st.needKernel(); err != nil {
		return err
	}
	var err error
	if n.Mode == "" {
		n.Mode = "slipstream"
	}
	if st.mode, err = ParseMode(n.Mode); err != nil {
		return err
	}
	n.Mode = st.mode.String()
	if n.Sync == "" {
		n.Sync = "GLOBAL_SYNC"
	}
	if n.Tokens < 0 || n.Tokens > maxTokenCount {
		return fmt.Errorf("tokens %d outside [0, %d]", n.Tokens, maxTokenCount)
	}
	if st.sync, err = ParseSync(n.Sync, n.Tokens); err != nil {
		return err
	}
	n.Sync = strings.ToUpper(n.Sync)
	n.Tokens = st.sync.Tokens // NONE zeroes the count
	if n.Sched == "" {
		n.Sched = "static"
	}
	if st.sched, err = ParseSched(n.Sched); err != nil {
		return err
	}
	n.Sched = st.sched.String()
	if n.Chunk < 0 {
		return fmt.Errorf("chunk %d invalid", n.Chunk)
	}
	return st.compileRunFaults()
}

// normalizeKernels normalizes a suite kernel filter (trimmed, uppercased,
// blanks and duplicates dropped, sorted) and checks every name against
// npb.Kernels(), the list the suites filter. Sorting changes no output:
// suites render in npb.Kernels() order. An empty filter stays nil ("all
// kernels").
func normalizeKernels(names []string) ([]string, error) {
	all := npb.Kernels()
	var out []string
	for _, n := range names {
		name := strings.ToUpper(strings.TrimSpace(n))
		if name == "" || slices.Contains(out, name) {
			continue
		}
		if !slices.ContainsFunc(all, func(k npb.Kernel) bool { return k.Name == name }) {
			valid := make([]string, len(all))
			for i, k := range all {
				valid[i] = k.Name
			}
			return nil, fmt.Errorf("unknown kernel %q (valid: %s)", n, strings.Join(valid, ", "))
		}
		out = append(out, name)
	}
	slices.Sort(out)
	return out, nil
}

// sortedInts returns a sorted copy of xs.
func sortedInts(xs []int) []int {
	out := slices.Clone(xs)
	slices.Sort(out)
	return out
}

// validateCounts checks a count list: at least one value, each inside
// [min, max], no duplicates. The upper bound keeps absurd counts from
// reaching machine.New, which enforces its limits by panicking.
func validateCounts(counts []int, min, max int, field string) error {
	if len(counts) == 0 {
		return fmt.Errorf("kind requires non-empty %s", field)
	}
	for i, n := range counts {
		if n < min {
			return fmt.Errorf("%s value %d is below the minimum %d", field, n, min)
		}
		if n > max {
			return fmt.Errorf("%s value %d is above the maximum %d", field, n, max)
		}
		if slices.Contains(counts[:i], n) {
			return fmt.Errorf("duplicate %s value %d", field, n)
		}
	}
	return nil
}

// compilePlan validates a faults block's seed and classes into a plan
// (Rate unset): the default seed applied, classes sorted, deduplicated
// and canonically spelled in the normalized block it returns.
func compilePlan(fs *FaultSpec) (*faults.Config, *FaultSpec, error) {
	cfg := &faults.Config{Seed: fs.Seed}
	if cfg.Seed == 0 {
		cfg.Seed = defaultChaosSeed
	}
	for _, name := range fs.Classes {
		cl, err := faults.ParseClass(name)
		if err != nil {
			return nil, nil, err
		}
		if !slices.Contains(cfg.Classes, cl) {
			cfg.Classes = append(cfg.Classes, cl)
		}
	}
	slices.Sort(cfg.Classes)
	norm := &FaultSpec{Seed: cfg.Seed}
	for _, cl := range cfg.Classes {
		norm.Classes = append(norm.Classes, cl.String())
	}
	return cfg, norm, nil
}

// compileRunFaults validates and normalizes the faults block of a "run"
// spec. A rate-zero block normalizes to no block at all, so the two
// spellings share a cache key.
func (st *Study) compileRunFaults() error {
	fs := st.Spec.Faults
	if fs == nil {
		return nil
	}
	if len(fs.Rates) > 0 {
		return fmt.Errorf("kind %q takes faults.rate, not faults.rates", KindRun)
	}
	cfg, norm, err := compilePlan(fs)
	if err != nil {
		return err
	}
	cfg.Rate, norm.Rate = fs.Rate, fs.Rate
	if err := cfg.Validate(); err != nil {
		return err
	}
	st.Spec.Faults = nil
	if cfg.Rate != 0 {
		st.faults, st.Spec.Faults = cfg, norm
	}
	return nil
}

// compileChaosFaults validates and normalizes the faults block of a
// "chaos" spec: defaults applied, and the rates sorted, deduplicated,
// each checked as a plan rate, and the fault-free baseline rate 0
// included, which every slowdown is computed against. The runner takes
// the normalized rates as given, so the canonical spec matches the
// rendered sweep.
func (st *Study) compileChaosFaults() error {
	fs := st.Spec.Faults
	if fs == nil {
		fs = &FaultSpec{}
	}
	if fs.Rate != 0 {
		return fmt.Errorf("kind %q sweeps faults.rates, not faults.rate", KindChaos)
	}
	if len(fs.Rates) > maxChaosRates {
		return fmt.Errorf("faults.rates has %d entries, maximum %d", len(fs.Rates), maxChaosRates)
	}
	cfg, norm, err := compilePlan(fs)
	if err != nil {
		return err
	}
	rates := fs.Rates
	if len(rates) == 0 {
		rates = defaultChaosRates
	}
	norm.Rates = []float64{0}
	for _, r := range rates {
		if err := (faults.Config{Rate: r}).Validate(); err != nil {
			return err
		}
		if !slices.Contains(norm.Rates, r) {
			norm.Rates = append(norm.Rates, r)
		}
	}
	slices.Sort(norm.Rates)
	st.faults, st.Spec.Faults = cfg, norm
	return nil
}
