package experiments

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/machine"
)

// mustCompile compiles a spec the test knows is valid.
func mustCompile(t *testing.T, s Spec) *Study {
	t.Helper()
	st, err := Compile(s)
	if err != nil {
		t.Fatalf("Compile(%+v): %v", s, err)
	}
	return st
}

// normalized compiles s and returns its normalized encoding, the bytes a
// cache key hashes.
func normalized(t *testing.T, s Spec) string {
	t.Helper()
	data, err := json.Marshal(mustCompile(t, s).Spec)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// minimalSpecs are the smallest valid spec of every kind.
var minimalSpecs = map[string]Spec{
	KindRun:          {Kind: KindRun, Kernel: "CG"},
	KindStatic:       {Kind: KindStatic},
	KindDynamic:      {Kind: KindDynamic},
	KindScaling:      {Kind: KindScaling, Kernel: "CG", NodeCounts: []int{2}},
	KindTokens:       {Kind: KindTokens, Kernel: "CG", TokenCounts: []int{0}},
	KindCharacterize: {Kind: KindCharacterize},
	KindChaos:        {Kind: KindChaos},
	KindTasks:        {Kind: KindTasks},
}

// TestCompileReadsTable drives every kind × field pair through the
// per-kind table: a field the kind reads takes a non-default value, a
// field it does not read is refused with an error naming it, and the
// default spelled out is accepted under the same normalized spec (so the
// same cache key) as the field left out.
func TestCompileReadsTable(t *testing.T) {
	mesh := machine.DefaultParams()
	mesh.Topology = machine.TopoMesh2D
	meshJSON, err := mesh.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	tableOne, err := machine.DefaultParams().CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	off := false
	on := true
	// set gives each field a value other than its default; spelled gives
	// it its default in a different spelling from absent.
	set := map[string]func(*Spec){
		"kernel":          func(s *Spec) { s.Kernel = "MG" },
		"mode":            func(s *Spec) { s.Mode = "single" },
		"sync":            func(s *Spec) { s.Sync = "LOCAL_SYNC" },
		"tokens":          func(s *Spec) { s.Tokens = 1 },
		"sched":           func(s *Spec) { s.Sched = "dynamic" },
		"chunk":           func(s *Spec) { s.Chunk = 4 },
		"scale":           func(s *Spec) { s.Scale = "small" },
		"nodes":           func(s *Spec) { s.Nodes = 8 },
		"kernels":         func(s *Spec) { s.Kernels = []string{"CG"} },
		"self_invalidate": func(s *Spec) { s.SelfInvalidate = true },
		"verify":          func(s *Spec) { s.Verify = &off },
		"node_counts":     func(s *Spec) { s.NodeCounts = []int{2, 4} },
		"token_counts":    func(s *Spec) { s.TokenCounts = []int{1} },
		"cutoffs":         func(s *Spec) { s.Cutoffs = []int{3} },
		"faults":          func(s *Spec) { s.Faults = &FaultSpec{Seed: 3} },
		"params":          func(s *Spec) { s.Params = meshJSON },
	}
	spelled := map[string]func(*Spec){
		"scale":   func(s *Spec) { s.Scale = "Test" },
		"nodes":   func(s *Spec) { s.Nodes = 16 },
		"kernels": func(s *Spec) { s.Kernels = []string{" "} },
		"verify":  func(s *Spec) { s.Verify = &on },
		"params":  func(s *Spec) { s.Params = tableOne },
	}
	for kind, base := range minimalSpecs {
		want := normalized(t, base)
		for _, f := range specFields {
			s := base
			set[f.name](&s)
			_, err := Compile(s)
			switch {
			case Reads(kind, f.name) && err != nil:
				t.Errorf("%s reads %s but refused %+v: %v", kind, f.name, s, err)
			case !Reads(kind, f.name) && (err == nil || !strings.Contains(err.Error(), "does not read "+f.name)):
				t.Errorf("%s does not read %s but Compile(%+v) = %v", kind, f.name, s, err)
			}
			if respell, ok := spelled[f.name]; ok && !Reads(kind, f.name) {
				s := base
				respell(&s)
				if got := normalized(t, s); got != want {
					t.Errorf("%s with %s spelled as its default normalizes to %s, want %s", kind, f.name, got, want)
				}
			}
		}
	}
}

// TestCompileCountLists: every count list follows one rule, at least one
// value, each in range, no duplicates.
func TestCompileCountLists(t *testing.T) {
	for _, tc := range []struct {
		spec Spec
		want string
	}{
		{Spec{Kind: KindScaling, Kernel: "CG", NodeCounts: []int{2, 0, 8}}, "node_counts value 0 is below the minimum 1"},
		{Spec{Kind: KindTokens, Kernel: "CG", TokenCounts: []int{-1}}, "token_counts value -1 is below the minimum 0"},
		{Spec{Kind: KindScaling, Kernel: "CG", NodeCounts: []int{2, 4, 2}}, "duplicate node_counts value 2"},
		{Spec{Kind: KindTokens, Kernel: "CG", TokenCounts: []int{0, 1, 0}}, "duplicate token_counts value 0"},
		{Spec{Kind: KindScaling, Kernel: "CG", NodeCounts: []int{100}}, "node_counts value 100 is above the maximum 64"},
		{Spec{Kind: KindTokens, Kernel: "CG", TokenCounts: []int{2000}}, "token_counts value 2000 is above the maximum 1024"},
		{Spec{Kind: KindScaling, Kernel: "CG"}, "non-empty node_counts"},
		{Spec{Kind: KindTokens, Kernel: "CG"}, "non-empty token_counts"},
	} {
		_, err := Compile(tc.spec)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Compile(%+v) = %v, want an error mentioning %q", tc.spec, err, tc.want)
		}
	}
}

// TestCompileNormalizes pins the normalizations every front end relies
// on: the default seed, canonical fault classes, the chaos rates with
// their baseline, and the kernel filter.
func TestCompileNormalizes(t *testing.T) {
	chaos := mustCompile(t, Spec{Kind: KindChaos,
		Faults: &FaultSpec{Rates: []float64{0.5, 0.05, 0.5}, Classes: []string{"token", "MEM", "token"}}})
	if want := (&FaultSpec{Seed: 42, Rates: []float64{0, 0.05, 0.5}, Classes: []string{"mem", "token"}}); !reflect.DeepEqual(chaos.Spec.Faults, want) {
		t.Errorf("chaos faults normalized to %+v, want %+v", chaos.Spec.Faults, want)
	}
	if len(chaos.faults.Classes) != 2 || chaos.faults.Seed != 42 || chaos.faults.Rate != 0 {
		t.Errorf("chaos plan = %+v", chaos.faults)
	}
	if got := mustCompile(t, Spec{Kind: KindChaos}).Spec.Faults.Rates; !reflect.DeepEqual(got, defaultChaosRates) {
		t.Errorf("default chaos rates = %v", got)
	}
	run := mustCompile(t, Spec{Kind: KindRun, Kernel: "cg", Faults: &FaultSpec{Rate: 0.1}})
	if run.Spec.Faults.Seed != 42 || run.faults.Seed != 42 || run.Spec.Kernel != "CG" {
		t.Errorf("run spec normalized to %+v (plan %+v)", run.Spec, run.faults)
	}
	if got := mustCompile(t, Spec{Kind: KindRun, Kernel: "CG", Faults: &FaultSpec{Seed: 9}}).Spec.Faults; got != nil {
		t.Errorf("a rate-zero run plan normalized to %+v, want no plan", got)
	}
	static := mustCompile(t, Spec{Kind: KindStatic, Kernels: []string{"mg", " CG", "CG", " "}})
	if !reflect.DeepEqual(static.Spec.Kernels, []string{"CG", "MG"}) {
		t.Errorf("kernel filter normalized to %v", static.Spec.Kernels)
	}
	if _, err := Compile(Spec{Kind: KindStatic, Kernels: []string{"EP"}}); err == nil || !strings.Contains(err.Error(), `unknown kernel "EP"`) {
		t.Errorf("a run kernel the suites do not filter: %v", err)
	}
}
