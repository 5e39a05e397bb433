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
// format change) — stale cached bytes must stop matching.
// slipd-2: fault injection hooks in the machine/core/omp layers.
// slipd-3: task-based scheduling study (kind "tasks", work-stealing deques).
const CacheKeyVersion = "slipd-3"

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
	// defaults.
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
// to its typed value, ready to execute and to hash.
type compiledSpec struct {
	spec     JobSpec // normalized copy (canonical casing, defaults applied)
	priority int     // resolved scheduling class
	scale    npb.Scale
	opts     experiments.Options // canonical options for the suite kinds
	mode     core.Mode
	sync     core.Config
	sched    omp.Schedule

	faults     *faults.Config // armed plan (nil = no faults); Rate 0 for chaos
	chaosRates []float64      // kind "chaos": normalized sweep (sorted, 0 included)
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

	opts := experiments.Options{
		Nodes:          c.spec.Nodes,
		Scale:          scale,
		Kernels:        s.Kernels,
		SelfInvalidate: s.SelfInvalidate,
		Verify:         verify,
	}
	if len(s.Params) > 0 {
		p, err := machine.ParamsFromCanonicalJSON(s.Params)
		if err != nil {
			return nil, err
		}
		if err := p.Validate(); err != nil {
			return nil, err
		}
		opts.Params = &p
	}
	c.opts = opts.Canonical()
	if err := c.opts.Params.Validate(); err != nil {
		return nil, err
	}
	c.spec.Kernels = c.opts.Kernels
	// Re-encode the resolved machine into the normalized spec so two
	// specs describing the same machine (explicit defaults vs. omitted)
	// normalize identically.
	pj, err := c.opts.Params.CanonicalJSON()
	if err != nil {
		return nil, err
	}
	c.spec.Params = pj

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

	// Validate the suite filter eagerly so a bad name 400s at submit.
	if len(c.spec.Kernels) > 0 {
		for _, name := range c.spec.Kernels {
			if _, err := npb.ByName(name); err != nil {
				return nil, err
			}
		}
	}
	return c, nil
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
	c.chaosRates = norm
	c.spec.Faults = &FaultSpec{Seed: cfg.Seed, Rates: norm, Classes: canon}
	return nil
}

// canonKey is the frozen hashing shape (alphabetical field order, no
// omitempty: absent and zero must hash identically forever).
type canonKey struct {
	Chunk       int             `json:"chunk"`
	Cutoffs     []int           `json:"cutoffs"`
	Faults      faultsKey       `json:"faults"`
	Kernel      string          `json:"kernel"`
	Kind        string          `json:"kind"`
	Mode        string          `json:"mode"`
	NodeCounts  []int           `json:"node_counts"`
	Options     json.RawMessage `json:"options"`
	Sched       string          `json:"sched"`
	Sync        string          `json:"sync"`
	TokenCounts []int           `json:"token_counts"`
	Tokens      int             `json:"tokens"`
	Version     string          `json:"version"`
}

// faultsKey is the canonical hashed form of a fault plan. The zero value
// (no faults) hashes identically whether the block was absent or spelled
// out with rate 0.
type faultsKey struct {
	Classes []string  `json:"classes"`
	Rate    float64   `json:"rate"`
	Rates   []float64 `json:"rates"`
	Seed    uint64    `json:"seed"`
}

// faultsKeyOf builds the canonical fault member from the compiled plan.
func (c *compiledSpec) faultsKeyOf() faultsKey {
	k := faultsKey{Classes: []string{}, Rates: []float64{}}
	if c.faults == nil {
		return k
	}
	k.Seed = c.faults.Seed
	k.Rate = c.faults.Rate
	for _, cl := range c.faults.Classes {
		k.Classes = append(k.Classes, cl.String())
	}
	k.Rates = append(k.Rates, c.chaosRates...)
	return k
}

// cacheKey hashes the canonical form of the spec plus CacheKeyVersion.
// Determinism makes this sound: two specs with equal keys run the same
// simulation on the same code and therefore produce identical bytes.
func (c *compiledSpec) cacheKey() (string, error) {
	oj, err := c.opts.CanonicalJSON()
	if err != nil {
		return "", err
	}
	nodeCounts := append([]int(nil), c.spec.NodeCounts...)
	sort.Ints(nodeCounts)
	tokenCounts := append([]int(nil), c.spec.TokenCounts...)
	sort.Ints(tokenCounts)
	cutoffs := append([]int(nil), c.spec.Cutoffs...)
	sort.Ints(cutoffs)
	data, err := json.Marshal(canonKey{
		Chunk:       c.spec.Chunk,
		Cutoffs:     emptyNotNil(cutoffs),
		Faults:      c.faultsKeyOf(),
		Kernel:      c.spec.Kernel,
		Kind:        c.spec.Kind,
		Mode:        c.spec.Mode,
		NodeCounts:  emptyNotNil(nodeCounts),
		Options:     oj,
		Sched:       c.spec.Sched,
		Sync:        c.spec.Sync,
		TokenCounts: emptyNotNil(tokenCounts),
		Tokens:      c.spec.Tokens,
		Version:     CacheKeyVersion,
	})
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// emptyNotNil keeps nil and empty slices hashing identically ([]).
func emptyNotNil(xs []int) []int {
	if xs == nil {
		return []int{}
	}
	return xs
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
