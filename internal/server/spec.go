package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/npb"
	"repro/internal/omp"
)

// CacheKeyVersion is the code-version component of every cache key. Bump
// it whenever a change alters simulation results or rendered output for
// an unchanged spec (new machine parameter, timing-model fix, table
// format change), or changes how a key is computed — stale cached bytes
// must stop matching. The golden files under testdata/golden pin the
// bytes; a change that moves one regenerates it and bumps this.
// slipd-2: fault injection hooks in the machine/core/omp layers.
// slipd-3: task-based scheduling study (kind "tasks", work-stealing deques).
// slipd-4: the key hashes the normalized spec itself; scaling and tokens
// count lists keep their order (the first entry is the base row).
const CacheKeyVersion = "slipd-4"

// Job kinds, mirroring the CLI surface: a single kernel run, the paper's
// static/dynamic suites, the fixed-size scaling study, the A–R token
// sweep, the synthetic-workload characterization, the chaos suite
// (fault-rate sweep with verification forced on), and the tasking study
// (task tree vs loop baseline over a team × cut-off grid).
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

// Validation bounds that keep absurd specs from reaching the simulator:
// machine.New accepts 1..64 nodes, and token/rate sweeps beyond these
// sizes would only ever be a typo or a fuzzer.
const (
	maxNodeCount     = 64
	maxTokenCount    = 1024
	maxChaosRates    = 32
	defaultChaosSeed = 42
)

// defaultChaosRates is the sweep used when a chaos spec omits rates.
var defaultChaosRates = []float64{0, 0.01, 0.05, 0.2}

// Default grid for the tasking study when the spec omits the axes (fresh
// slices per call: compile mutates the spec's copies).
func defaultTaskTeams() []int   { return []int{2, 4, 8} }
func defaultTaskCutoffs() []int { return []int{2, 4, 6, 8} }

// JobSpec is the POST /jobs request body. String fields use the same
// vocabulary as the slipsim/sweep CLI flags, parsed by the same shared
// parsers, so anything expressible on the command line is expressible as
// a job. Omitted fields take documented defaults; unknown fields are
// rejected.
type JobSpec struct {
	Kind string `json:"kind"`

	// Priority selects the scheduling class: "interactive" (single
	// probes that preempt queued bulk work) or "batch". Empty defaults
	// by kind — "run" is interactive, every suite kind is batch.
	// Deliberately NOT part of the cache key: priority changes when a
	// job runs, never what it produces.
	Priority string `json:"priority,omitempty"`

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
	// Other kinds reject the block.
	Faults *FaultSpec `json:"faults,omitempty"`

	// Params optionally overrides the simulated machine, in the canonical
	// machine.Params encoding (all fields present). Absent = Table 1
	// defaults. Kinds scaling, tokens and characterize build Table-1
	// machines of their own and refuse any other machine.
	Params json.RawMessage `json:"params,omitempty"`
}

// FaultSpec is the faults block of a job spec. Seed 0 means the default
// seed; an empty class list arms every class.
type FaultSpec struct {
	Seed    uint64    `json:"seed,omitempty"`
	Rate    float64   `json:"rate,omitempty"`    // kind "run" only
	Rates   []float64 `json:"rates,omitempty"`   // kind "chaos" only
	Classes []string  `json:"classes,omitempty"` // subset of faults.ClassNames()
}

// compiledSpec is a validated, normalized spec with every string resolved
// to its typed value. The normalized spec is the one description of the
// job: cacheKey hashes it, and the typed fields execute reads are all
// derived from it.
type compiledSpec struct {
	spec     JobSpec // normalized copy (canonical casing, defaults applied)
	priority int     // resolved scheduling class
	scale    npb.Scale
	opts     experiments.Options // suite options resolved from spec
	mode     core.Mode
	sync     core.Config
	sched    omp.Schedule
	faults   *faults.Config // armed plan (nil = no faults); Rate 0 for chaos
}

// label names the metrics series for this spec: the kernel for
// single-subject kinds, the kind for suites.
func (c *compiledSpec) label() string {
	switch c.spec.Kind {
	case KindRun, KindScaling, KindTokens:
		return c.spec.Kernel
	}
	return c.spec.Kind
}

// compile validates a spec, applies defaults, and normalizes casing. All
// user errors surface here as 400s; execution only sees valid specs.
func compile(s JobSpec) (*compiledSpec, error) {
	c := &compiledSpec{spec: s}

	if s.Scale == "" {
		c.spec.Scale = "test"
	}
	scale, err := npb.ParseScale(c.spec.Scale)
	if err != nil {
		return nil, err
	}
	c.scale = scale
	c.spec.Scale = scale.String()

	if s.Nodes == 0 {
		c.spec.Nodes = 16
	} else if s.Nodes < 0 {
		return nil, fmt.Errorf("nodes %d invalid", s.Nodes)
	}

	verify := true
	if s.Verify != nil {
		verify = *s.Verify
	}
	c.spec.Verify = &verify

	kernels, err := suiteKernels(s.Kernels)
	if err != nil {
		return nil, err
	}
	c.spec.Kernels = kernels

	// The machine: the decoded params block or Table 1, with the spec's
	// node count applied on top.
	p := machine.DefaultParams()
	if len(s.Params) > 0 {
		if p, err = machine.ParamsFromCanonicalJSON(s.Params); err != nil {
			return nil, err
		}
		if err := p.Validate(); err != nil {
			return nil, err
		}
	}
	p.Nodes = c.spec.Nodes
	if err := p.Validate(); err != nil {
		return nil, err
	}
	c.opts = experiments.Options{
		Nodes:          c.spec.Nodes,
		Scale:          scale,
		Kernels:        kernels,
		SelfInvalidate: s.SelfInvalidate,
		Verify:         verify,
		Params:         &p,
	}
	// Scaling, tokens and characterize build Table-1 machines of their
	// own, and dynamic never self-invalidates: refuse a setting the run
	// would ignore rather than key a result on it. A Table-1 params block
	// is accepted and dropped, so older normalized specs still replay.
	tableOne := s.Kind == KindScaling || s.Kind == KindTokens || s.Kind == KindCharacterize
	if tableOne {
		def := machine.DefaultParams()
		def.Nodes = p.Nodes
		if p != def {
			return nil, fmt.Errorf("kind %q runs Table-1 machines and does not read params", s.Kind)
		}
		c.spec.Params = nil
	} else if c.spec.Params, err = p.CanonicalJSON(); err != nil {
		return nil, err
	}
	if s.SelfInvalidate && (tableOne || s.Kind == KindDynamic) {
		return nil, fmt.Errorf("kind %q does not read self_invalidate", s.Kind)
	}

	needKernel := func() error {
		if c.spec.Kernel == "" {
			return fmt.Errorf("kind %q requires a kernel", c.spec.Kind)
		}
		k, err := npb.ByName(strings.ToUpper(c.spec.Kernel))
		if err != nil {
			return err
		}
		c.spec.Kernel = k.Name
		return nil
	}

	switch s.Kind {
	case KindRun:
		if err := needKernel(); err != nil {
			return nil, err
		}
		if c.spec.Mode == "" {
			c.spec.Mode = "slipstream"
		}
		if c.mode, err = experiments.ParseMode(c.spec.Mode); err != nil {
			return nil, err
		}
		c.spec.Mode = modeName(c.mode)
		if c.spec.Sync == "" {
			c.spec.Sync = "GLOBAL_SYNC"
		}
		if c.spec.Tokens < 0 || c.spec.Tokens > maxTokenCount {
			return nil, fmt.Errorf("tokens %d outside [0, %d]", c.spec.Tokens, maxTokenCount)
		}
		if c.sync, err = experiments.ParseSync(c.spec.Sync, c.spec.Tokens); err != nil {
			return nil, err
		}
		c.spec.Sync = strings.ToUpper(c.spec.Sync)
		c.spec.Tokens = c.sync.Tokens // NONE zeroes the count
		if c.spec.Sched == "" {
			c.spec.Sched = "static"
		}
		if c.sched, err = experiments.ParseSched(c.spec.Sched); err != nil {
			return nil, err
		}
		c.spec.Sched = c.sched.String()
		if c.spec.Chunk < 0 {
			return nil, fmt.Errorf("chunk %d invalid", c.spec.Chunk)
		}
		if err := c.compileRunFaults(s.Faults); err != nil {
			return nil, err
		}
	case KindStatic, KindDynamic, KindCharacterize:
		if c.spec.Kernel != "" {
			return nil, fmt.Errorf("kind %q takes a kernels filter, not kernel", s.Kind)
		}
	case KindScaling:
		if err := needKernel(); err != nil {
			return nil, err
		}
		if err := validateCounts(s.NodeCounts, 1, maxNodeCount, "node_counts"); err != nil {
			return nil, err
		}
	case KindTokens:
		if err := needKernel(); err != nil {
			return nil, err
		}
		if err := validateCounts(s.TokenCounts, 0, maxTokenCount, "token_counts"); err != nil {
			return nil, err
		}
	case KindChaos:
		if c.spec.Kernel != "" {
			return nil, fmt.Errorf("kind %q takes a kernels filter, not kernel", s.Kind)
		}
		if err := c.compileChaosFaults(s.Faults); err != nil {
			return nil, err
		}
	case KindTasks:
		if c.spec.Kernel != "" || len(c.spec.Kernels) > 0 {
			return nil, fmt.Errorf("kind %q runs the fixed TREE/TREEL pair; it takes no kernel", s.Kind)
		}
		if len(c.spec.NodeCounts) == 0 {
			c.spec.NodeCounts = defaultTaskTeams()
		}
		if err := validateCounts(c.spec.NodeCounts, 1, maxNodeCount, "node_counts"); err != nil {
			return nil, err
		}
		if len(c.spec.Cutoffs) == 0 {
			c.spec.Cutoffs = defaultTaskCutoffs()
		}
		if err := validateCounts(c.spec.Cutoffs, 0, npb.MaxTreeCutoff, "cutoffs"); err != nil {
			return nil, err
		}
		// The runner sorts both axes, so either order is one table.
		c.spec.NodeCounts = sortedInts(c.spec.NodeCounts)
		c.spec.Cutoffs = sortedInts(c.spec.Cutoffs)
	case "":
		return nil, fmt.Errorf("missing kind (valid: run, static, dynamic, scaling, tokens, characterize, chaos, tasks)")
	default:
		return nil, fmt.Errorf("unknown kind %q (valid: run, static, dynamic, scaling, tokens, characterize, chaos, tasks)", s.Kind)
	}
	if s.Faults != nil && s.Kind != KindRun && s.Kind != KindChaos {
		return nil, fmt.Errorf("kind %q does not take a faults block", s.Kind)
	}

	// Scheduling class: explicit, or defaulted by kind (a single run is
	// an interactive probe; every suite is bulk work).
	switch strings.ToLower(s.Priority) {
	case "":
		if s.Kind == KindRun {
			c.spec.Priority = PriorityNameInteractive
		} else {
			c.spec.Priority = PriorityNameBatch
		}
	case PriorityNameInteractive, PriorityNameBatch:
		c.spec.Priority = strings.ToLower(s.Priority)
	default:
		return nil, fmt.Errorf("unknown priority %q (valid: interactive, batch)", s.Priority)
	}
	c.priority = PriorityValue(c.spec.Priority)
	return c, nil
}

// suiteKernels normalizes a suite kernel filter (trimmed, uppercased,
// blanks and duplicates dropped, sorted) and checks every name against
// npb.Kernels(), the list the suites filter, so a bad name 400s at
// submit. Sorting changes no output: suites render in npb.Kernels()
// order. An empty filter stays nil ("all kernels").
func suiteKernels(names []string) ([]string, error) {
	valid := map[string]bool{}
	var all []string
	for _, k := range npb.Kernels() {
		valid[k.Name] = true
		all = append(all, k.Name)
	}
	seen := map[string]bool{}
	var out []string
	for _, n := range names {
		name := strings.ToUpper(strings.TrimSpace(n))
		if name == "" || seen[name] {
			continue
		}
		if !valid[name] {
			return nil, fmt.Errorf("unknown kernel %q (valid: %s)", n, strings.Join(all, ", "))
		}
		seen[name] = true
		out = append(out, name)
	}
	sort.Strings(out)
	return out, nil
}

// sortedInts returns a sorted copy of xs.
func sortedInts(xs []int) []int {
	out := append([]int(nil), xs...)
	sort.Ints(out)
	return out
}

// validateCounts applies the same rules as the sweep CLI: at least one
// value, each inside [min, max], no duplicates. The upper bound keeps
// absurd counts from reaching machine.New, which enforces its limits by
// panicking.
func validateCounts(counts []int, min, max int, field string) error {
	if len(counts) == 0 {
		return fmt.Errorf("kind requires non-empty %s", field)
	}
	seen := map[int]bool{}
	for _, n := range counts {
		if n < min {
			return fmt.Errorf("%s value %d is below the minimum %d", field, n, min)
		}
		if n > max {
			return fmt.Errorf("%s value %d is above the maximum %d", field, n, max)
		}
		if seen[n] {
			return fmt.Errorf("duplicate %s value %d", field, n)
		}
		seen[n] = true
	}
	return nil
}

// compileFaultClasses parses and canonicalizes a class-name list: sorted
// by class, deduplicated, canonical spellings.
func compileFaultClasses(names []string) ([]faults.Class, []string, error) {
	if len(names) == 0 {
		return nil, nil, nil
	}
	seen := map[faults.Class]bool{}
	var classes []faults.Class
	for _, name := range names {
		cl, err := faults.ParseClass(name)
		if err != nil {
			return nil, nil, err
		}
		if !seen[cl] {
			seen[cl] = true
			classes = append(classes, cl)
		}
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })
	canon := make([]string, len(classes))
	for i, cl := range classes {
		canon[i] = cl.String()
	}
	return classes, canon, nil
}

// compileRunFaults validates and normalizes the faults block of a "run"
// spec. A rate-zero block normalizes to no block at all, so the two
// spellings share a cache key.
func (c *compiledSpec) compileRunFaults(fs *FaultSpec) error {
	if fs == nil {
		return nil
	}
	if len(fs.Rates) > 0 {
		return fmt.Errorf("kind %q takes faults.rate, not faults.rates", KindRun)
	}
	classes, canon, err := compileFaultClasses(fs.Classes)
	if err != nil {
		return err
	}
	cfg := faults.Config{Seed: fs.Seed, Rate: fs.Rate, Classes: classes}
	if cfg.Seed == 0 {
		cfg.Seed = defaultChaosSeed
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	if cfg.Rate == 0 {
		c.spec.Faults = nil
		return nil
	}
	c.faults = &cfg
	c.spec.Faults = &FaultSpec{Seed: cfg.Seed, Rate: cfg.Rate, Classes: canon}
	return nil
}

// compileChaosFaults validates and normalizes the faults block of a
// "chaos" spec: defaults applied, rates sorted, deduplicated, and the
// fault-free baseline rate 0 included — the same normalization the chaos
// runner performs, so the canonical spec matches the rendered sweep.
func (c *compiledSpec) compileChaosFaults(fs *FaultSpec) error {
	if fs == nil {
		fs = &FaultSpec{}
	}
	if fs.Rate != 0 {
		return fmt.Errorf("kind %q sweeps faults.rates, not faults.rate", KindChaos)
	}
	if len(fs.Rates) > maxChaosRates {
		return fmt.Errorf("faults.rates has %d entries, maximum %d", len(fs.Rates), maxChaosRates)
	}
	classes, canon, err := compileFaultClasses(fs.Classes)
	if err != nil {
		return err
	}
	cfg := faults.Config{Seed: fs.Seed, Classes: classes}
	if cfg.Seed == 0 {
		cfg.Seed = defaultChaosSeed
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	rates := fs.Rates
	if len(rates) == 0 {
		rates = defaultChaosRates
	}
	seen := map[float64]bool{0: true}
	norm := []float64{0}
	for _, r := range rates {
		if r < 0 || r > 1 {
			return fmt.Errorf("faults.rates value %g outside [0, 1]", r)
		}
		if !seen[r] {
			seen[r] = true
			norm = append(norm, r)
		}
	}
	sort.Float64s(norm)
	c.faults = &cfg
	c.spec.Faults = &FaultSpec{Seed: cfg.Seed, Rates: norm, Classes: canon}
	return nil
}

// cacheKey hashes CacheKeyVersion and the normalized spec with its
// priority cleared: priority changes when a job runs, never what it
// produces. Execution reads every input from that spec, so two specs
// with equal keys run the same simulation on the same code and, by
// determinism, produce identical bytes.
func (c *compiledSpec) cacheKey() (string, error) {
	spec := c.spec
	spec.Priority = ""
	data, err := json.Marshal(spec)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(append([]byte(CacheKeyVersion+"\n"), data...))
	return hex.EncodeToString(sum[:]), nil
}

// decodeSpec parses a job spec strictly (see decodeStrict).
func decodeSpec(r io.Reader) (JobSpec, error) {
	var s JobSpec
	if err := decodeStrict(r, &s, "job spec"); err != nil {
		return JobSpec{}, err
	}
	return s, nil
}

// decodeStrict parses one JSON request body into v: unknown fields and
// trailing data are rejected so typos fail loudly instead of running a
// default. what names the body in the trailing-data error. A body cap
// tripped anywhere, trailing whitespace included, comes back as the
// reader's *http.MaxBytesError.
func decodeStrict(r io.Reader, v any, what string) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	var trailing any
	if err := dec.Decode(&trailing); err != io.EOF {
		if tooBig := new(http.MaxBytesError); errors.As(err, &tooBig) {
			return err
		}
		return fmt.Errorf("trailing data after %s", what)
	}
	return nil
}

// modeName renders a mode the way ParseMode accepts it.
func modeName(m core.Mode) string {
	switch m {
	case core.ModeSingle:
		return "single"
	case core.ModeDouble:
		return "double"
	default:
		return "slipstream"
	}
}
