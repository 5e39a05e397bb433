package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// chaosStudy compiles a CG chaos sweep on 4 CMPs at test scale.
func chaosStudy(t *testing.T, seed uint64, rates ...float64) *Study {
	t.Helper()
	return mustCompile(t, Spec{Kind: KindChaos, Kernels: []string{"CG"}, Nodes: 4, Scale: "test",
		Faults: &FaultSpec{Seed: seed, Rates: rates}})
}

// The acceptance bar for the chaos suite: the same seed and rates render
// byte-identical reports at any -jobs value.
func TestChaosDeterministicAtAnyJobs(t *testing.T) {
	st := chaosStudy(t, 42, 0.5)
	render := func(jobs int) string {
		var buf bytes.Buffer
		if _, _, err := st.Execute(context.Background(), jobs, &buf, nil); err != nil {
			t.Fatalf("chaos cells failed: %v", err)
		}
		return buf.String()
	}
	seq := render(1)
	par := render(4)
	if seq != par {
		t.Fatalf("chaos report differs between -jobs 1 and -jobs 4:\n--- jobs=1\n%s\n--- jobs=4\n%s", seq, par)
	}
	if !strings.Contains(seq, "faults cost time, never correctness") {
		t.Fatalf("report missing verification line:\n%s", seq)
	}
}

// Every injected-fault run must still pass result verification, and at an
// aggressive rate the recovery path must actually fire.
func TestChaosInjectsAndStillVerifies(t *testing.T) {
	st := chaosStudy(t, 7, 0.5)
	s, err := RunChaosCtx(context.Background(), st.opts, *st.faults, st.Spec.Faults.Rates, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Err(); err != nil {
		t.Fatalf("verification failed under injection: %v", err)
	}
	injected, recoveries := s.Totals()
	if injected == 0 {
		t.Fatal("rate 0.5 injected no faults")
	}
	if recoveries == 0 {
		t.Fatal("rate 0.5 triggered no divergence recoveries")
	}
	// The fault-free baseline row must be clean even though only rate 0.5
	// was requested (Compile adds rate 0).
	rows := s.Rows["CG"]
	if len(rows) != 2 || rows[0].Rate != 0 || rows[1].Rate != 0.5 {
		t.Fatalf("rows = %+v", rows)
	}
	for _, cfg := range []string{"slip-G0", "slip-G0-dyn"} {
		if r, ok := rows[0].Results[cfg]; !ok || r.Faults != 0 {
			t.Fatalf("baseline %s: ok=%v faults=%d", cfg, ok, r.Faults)
		}
		if _, ok := rows[1].Results[cfg]; !ok {
			t.Fatalf("missing injected cell %s", cfg)
		}
	}
}

// Compile is the one validator of a chaos plan: the runner takes its
// normalized rates and plan as given.
func TestChaosRejectsBadPlan(t *testing.T) {
	for _, tc := range []struct {
		name    string
		kernels []string
		fs      *FaultSpec
		want    string
	}{
		{"rate 2", nil, &FaultSpec{Seed: 1, Rates: []float64{2}}, "rate 2 outside [0, 1]"},
		{"negative rate", nil, &FaultSpec{Seed: 1, Rates: []float64{0.1, -0.5}}, "rate -0.5 outside [0, 1]"},
		{"unknown class", nil, &FaultSpec{Seed: 1, Classes: []string{"token", "nope"}}, `unknown class "nope"`},
		{"unknown kernel", []string{"nope"}, &FaultSpec{Seed: 1}, `unknown kernel "nope"`},
		{"single rate", nil, &FaultSpec{Seed: 1, Rate: 0.5}, "faults.rates, not faults.rate"},
		{"too many rates", nil, &FaultSpec{Seed: 1, Rates: make([]float64, maxChaosRates+1)}, "maximum 32"},
	} {
		_, err := Compile(Spec{Kind: KindChaos, Kernels: tc.kernels, Faults: tc.fs})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Compile error %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
}
