package validate

import (
	"strings"
	"testing"

	"repro/internal/machine"
)

func TestAllChecksPassOnDefaults(t *testing.T) {
	p := machine.DefaultParams()
	p.Nodes = 8 // keep the checkup quick
	rs := All(p)
	if len(rs) < 10 {
		t.Fatalf("only %d checks ran", len(rs))
	}
	for _, r := range rs {
		if !r.Pass {
			t.Errorf("check %q failed: %s", r.Name, r.Detail)
		}
	}
	if !Passed(rs) {
		t.Fatal("Passed() disagrees")
	}
}

// TestAllParallelMatchesSequential: the checkup must report the same
// results in the same canonical order however many workers run it.
func TestAllParallelMatchesSequential(t *testing.T) {
	p := machine.DefaultParams()
	p.Nodes = 4
	seq := All(p)
	par := AllParallel(p, 8)
	if len(seq) != len(par) {
		t.Fatalf("check counts differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Errorf("check %d differs: %+v vs %+v", i, seq[i], par[i])
		}
	}
}

func TestReportFormat(t *testing.T) {
	rs := []Result{
		{Name: "a", Pass: true, Detail: "fine"},
		{Name: "b", Pass: false, Detail: "broken"},
	}
	out := Report(rs)
	if !strings.Contains(out, "ok   a") || !strings.Contains(out, "FAIL b") {
		t.Fatalf("report = %q", out)
	}
	if Passed(rs) {
		t.Fatal("Passed with a failing result")
	}
}

func TestChecksDetectBrokenModel(t *testing.T) {
	// With dirty forwarding costing nothing, the 3-hop check must fail —
	// the checkup is not vacuously true.
	p := machine.DefaultParams()
	p.Nodes = 4
	p.DirtyForwardNS = 0
	r := CheckThreeHopDearer(p)
	if r.Pass {
		t.Fatalf("3-hop check passed on a degenerate model: %s", r.Detail)
	}
}

// TestRefusesMachineItCannotCheck: a machine outside the simulator's range
// or smaller than the checks are built for runs no check; the checkup
// reports why instead of panicking in a check or failing one for the
// wrong reason.
func TestRefusesMachineItCannotCheck(t *testing.T) {
	for _, tc := range []struct {
		nodes  int
		reason string
	}{
		{0, "node count 0 out of range"},
		{1, "at least 4 CMPs, got 1"},
		{2, "at least 4 CMPs, got 2"},
		{3, "at least 4 CMPs, got 3"},
		{65, "node count 65 out of range"},
	} {
		p := machine.DefaultParams()
		p.Nodes = tc.nodes
		rs := All(p)
		if len(rs) != 1 || rs[0].Pass || !strings.Contains(rs[0].Detail, tc.reason) {
			t.Errorf("%d CMPs: got %+v, want one failed result naming %q", tc.nodes, rs, tc.reason)
		}
	}
}
