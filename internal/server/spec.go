package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/experiments"
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

// JobSpec is the POST /jobs request body: a study spec, whose fields,
// defaults and validation every front end shares (see experiments.Spec),
// plus the scheduling class slipd queues it under. Unknown fields are
// rejected.
type JobSpec struct {
	experiments.Spec

	// Priority selects the scheduling class: "interactive" (single
	// probes that preempt queued bulk work) or "batch". Empty defaults
	// by kind — "run" is interactive, every suite kind is batch.
	// Deliberately NOT part of the cache key: priority changes when a
	// job runs, never what it produces.
	Priority string `json:"priority,omitempty"`
}

// compiledSpec is a validated, normalized job spec: the compiled study
// and the resolved scheduling class. A restored terminal job, which
// never runs, holds a study with only its decoded spec.
type compiledSpec struct {
	study    *experiments.Study
	priority int
}

// spec is the normalized job spec: the study's spec and the priority
// class name.
func (c *compiledSpec) spec() JobSpec {
	return JobSpec{Spec: c.study.Spec, Priority: PriorityName(c.priority)}
}

// label names the metrics series for this spec: the kernel for
// single-subject kinds, the kind for suites.
func (c *compiledSpec) label() string {
	switch s := &c.study.Spec; s.Kind {
	case experiments.KindRun, experiments.KindScaling, experiments.KindTokens:
		return s.Kernel
	default:
		return s.Kind
	}
}

// compile compiles the study and resolves the priority. All user errors
// surface here as 400s; execution only sees valid specs.
func compile(s JobSpec) (*compiledSpec, error) {
	st, err := experiments.Compile(s.Spec)
	if err != nil {
		return nil, err
	}
	// Scheduling class: explicit, or defaulted by kind (a single run is
	// an interactive probe; every suite is bulk work).
	c := &compiledSpec{study: st, priority: PriorityBatch}
	switch strings.ToLower(s.Priority) {
	case "":
		if s.Kind == experiments.KindRun {
			c.priority = PriorityInteractive
		}
	case PriorityNameInteractive:
		c.priority = PriorityInteractive
	case PriorityNameBatch:
	default:
		return nil, fmt.Errorf("unknown priority %q (valid: interactive, batch)", s.Priority)
	}
	return c, nil
}

// cacheKey hashes CacheKeyVersion and the normalized study spec, which
// leaves out the priority: priority changes when a job runs, never what
// it produces. Execution reads every input from that spec, so two specs
// with equal keys run the same simulation on the same code and, by
// determinism, produce identical bytes.
func (c *compiledSpec) cacheKey() (string, error) {
	data, err := json.Marshal(c.study.Spec)
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
