// Command smokefleet drives the end-to-end fleet drills.
//
// `smokefleet <bin>` (or `smokefleet <bin> fleet`, `make smoke-fleet`)
// runs the worker drills: a clean run through the claim path must settle
// with zero lease expirations and zero duplicate reports; then a worker
// is SIGKILLed while holding a claim and the job must settle on the
// survivor — via lease expiry, slipd_lease_expirations_total ≥ 1 — with
// bytes identical to an uninterrupted reference run, leaving one
// visible worker; finally a coordinator with zero workers must execute
// locally in degraded mode.
//
// `smokefleet <bin> ha` (`make smoke-ha`) runs the coordinator-kill
// drill: two peered coordinators replicating the claim table, two
// workers claiming from both. The coordinator that granted the in-flight
// job's lease is SIGKILLed; the worker's terminal report dies with it,
// so the drill passes only if the survivor's replicated copy of the
// lease expires, a worker reclaims the job through the survivor, and the
// survivor serves byte-identical bytes with zero claims left stranded.
package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"time"

	"repro/tools/internal/drill"
)

// fastSpec finishes in seconds; slowSpec runs long enough that a SIGKILL
// reliably lands while the claim is still leased and executing.
const (
	fastSpec = `{"kind":"scaling","kernel":"CG","node_counts":[2,4],"scale":"test"}`
	slowSpec = `{"kind":"static","kernels":["CG"],"nodes":8,"scale":"small"}`
)

func main() {
	bin := "bin/slipd"
	if len(os.Args) > 1 {
		bin = os.Args[1]
	}
	scenario := "fleet"
	if len(os.Args) > 2 {
		scenario = os.Args[2]
	}
	switch scenario {
	case "fleet":
		if err := workerKillDrill(bin); err != nil {
			fmt.Fprintln(os.Stderr, "smoke-fleet: FAILED:", err)
			os.Exit(1)
		}
		if err := degradedDrill(bin); err != nil {
			fmt.Fprintln(os.Stderr, "smoke-fleet: FAILED:", err)
			os.Exit(1)
		}
		fmt.Println("smoke-fleet: PASSED")
	case "ha":
		if err := coordinatorKillDrill(bin); err != nil {
			fmt.Fprintln(os.Stderr, "smoke-ha: FAILED:", err)
			os.Exit(1)
		}
		fmt.Println("smoke-ha: PASSED")
	default:
		fmt.Fprintf(os.Stderr, "smokefleet: unknown drill %q (want fleet or ha)\n", scenario)
		os.Exit(2)
	}
}

// workerKillDrill: coordinator + 2 workers on the pull path. A clean job
// first (zero reclaims), then SIGKILL the worker holding a claim and
// require the survivor to finish it byte-identically via lease expiry.
func workerKillDrill(bin string) error {
	refFast, err := drill.ReferenceRun(bin, fastSpec)
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	refSlow, err := drill.ReferenceRun(bin, slowSpec)
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}

	coord, coordBase, err := drill.Start(bin, "-no-persist", "-coordinator",
		"-sync-interval", "300ms", "-claim-lease", "2s")
	if err != nil {
		return err
	}
	defer coord.Process.Kill()
	if err := drill.WaitReady(coordBase, 10*time.Second); err != nil {
		return err
	}

	type workerProc struct {
		cmd  *exec.Cmd
		base string
	}
	workers := map[string]workerProc{}
	for _, id := range []string{"w1", "w2"} {
		cmd, base, err := drill.Start(bin, "-no-persist", "-worker",
			"-join", coordBase, "-worker-id", id, "-claim-poll", "500ms")
		if err != nil {
			return err
		}
		defer cmd.Process.Kill()
		workers[id] = workerProc{cmd, base}
	}

	// Both workers must become visible through their claim polls.
	if err := waitWorkers(coordBase, 2, 15*time.Second); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "smoke-fleet: 2 workers visible")

	// Phase 1 — clean run: a job claimed, executed, and reported without
	// any failure must never touch the lease-recovery machinery, and has
	// no legal source of a duplicate terminal report.
	id, _, _, err := drill.Submit(coordBase, "", fastSpec)
	if err != nil {
		return err
	}
	if err := drill.WaitDone(coordBase, id, 2*time.Minute); err != nil {
		return fmt.Errorf("clean claim run: %w", err)
	}
	got, code, err := drill.Get(coordBase + "/jobs/" + id + "/result")
	if err != nil {
		return err
	}
	if code != http.StatusOK || got != refFast {
		return fmt.Errorf("clean run result: HTTP %d, bytes match=%v", code, got == refFast)
	}
	metrics, _, err := drill.Get(coordBase + "/metrics")
	if err != nil {
		return err
	}
	if n, err := drill.MetricValue(metrics, `slipd_claims_total{outcome="done"}`); err != nil || n < 1 {
		return fmt.Errorf("clean run settled no claims (done=%d, err=%v):\n%s", n, err, metrics)
	}
	if n, err := drill.MetricValue(metrics, "slipd_lease_expirations_total"); err != nil || n != 0 {
		return fmt.Errorf("clean run expired %d leases, want 0 (err=%v):\n%s", n, err, metrics)
	}
	if n, err := drill.MetricValue(metrics, `slipd_claims_total{outcome="duplicate"}`); err != nil || n != 0 {
		return fmt.Errorf("clean run saw %d duplicate reports, want 0 (err=%v):\n%s", n, err, metrics)
	}
	fmt.Fprintln(os.Stderr, "smoke-fleet: clean claim run settled with zero lease expirations and zero duplicates")

	// Phase 2 — worker kill: find which worker holds the slow job's
	// lease, wait until it is actually executing, SIGKILL it.
	id, key, _, err := drill.Submit(coordBase, "", slowSpec)
	if err != nil {
		return err
	}
	victim, err := findClaimHolder(coordBase, key, 30*time.Second)
	if err != nil {
		return err
	}
	vp, ok := workers[victim]
	if !ok {
		return fmt.Errorf("claim held by unknown worker %q", victim)
	}
	if err := waitWorkerRunning(vp.base, 30*time.Second); err != nil {
		return err
	}
	if err := vp.cmd.Process.Kill(); err != nil {
		return err
	}
	vp.cmd.Wait()
	fmt.Fprintf(os.Stderr, "smoke-fleet: SIGKILLed worker %s while it held the claim for %s\n", victim, id)

	// The lease must expire and the survivor must finish the job with
	// bytes identical to the uninterrupted reference.
	if err := drill.WaitDone(coordBase, id, 3*time.Minute); err != nil {
		return fmt.Errorf("job after worker kill: %w", err)
	}
	got, code, err = drill.Get(coordBase + "/jobs/" + id + "/result")
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET result = %d", code)
	}
	if got != refSlow {
		return fmt.Errorf("post-kill result differs from uninterrupted run:\n--- survivor ---\n%s--- reference ---\n%s", got, refSlow)
	}
	fmt.Fprintln(os.Stderr, "smoke-fleet: lease recovery produced byte-identical output")

	metrics, _, err = drill.Get(coordBase + "/metrics")
	if err != nil {
		return err
	}
	exp, err := drill.MetricValue(metrics, "slipd_lease_expirations_total")
	if err != nil {
		return err
	}
	if exp < 1 {
		return fmt.Errorf("slipd_lease_expirations_total = %d, want >= 1:\n%s", exp, metrics)
	}
	// The victim's lease ran out before the survivor could reclaim it,
	// so the victim is out of sight too: one worker left.
	if !strings.Contains(metrics, "slipd_workers 1\n") {
		return fmt.Errorf("metrics missing surviving worker gauge slipd_workers 1:\n%s", metrics)
	}
	fmt.Fprintf(os.Stderr, "smoke-fleet: coordinator counted %d expired lease(s)\n", exp)

	// Survivor and coordinator both drain cleanly.
	for wid, wp := range workers {
		if wid == victim {
			continue
		}
		if err := drill.StopGracefully(wp.cmd); err != nil {
			return fmt.Errorf("stop worker %s: %w", wid, err)
		}
	}
	return drill.StopGracefully(coord)
}

// coordinatorKillDrill: two peered coordinators, two workers claiming
// from both. SIGKILL the coordinator that granted the in-flight lease;
// the survivor's replicated copy must expire, be reclaimed, and settle
// byte-identically with nothing stranded.
func coordinatorKillDrill(bin string) error {
	ref, err := drill.ReferenceRun(bin, slowSpec)
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}

	addrA, err := drill.FreeAddr()
	if err != nil {
		return err
	}
	addrB, err := drill.FreeAddr()
	if err != nil {
		return err
	}
	baseA, baseB := "http://"+addrA, "http://"+addrB

	coordFlags := []string{"-no-persist", "-coordinator",
		"-sync-interval", "300ms", "-claim-lease", "2s"}
	coA, err := drill.StartAt(bin, addrA, append(coordFlags, "-join-coordinator", baseB)...)
	if err != nil {
		return err
	}
	defer coA.Process.Kill()
	coB, err := drill.StartAt(bin, addrB, append(coordFlags, "-join-coordinator", baseA)...)
	if err != nil {
		return err
	}
	defer coB.Process.Kill()
	for _, base := range []string{baseA, baseB} {
		if err := drill.WaitReady(base, 10*time.Second); err != nil {
			return err
		}
	}

	for _, id := range []string{"w1", "w2"} {
		cmd, _, err := drill.Start(bin, "-no-persist", "-worker",
			"-join", baseA+","+baseB, "-worker-id", id, "-claim-poll", "500ms")
		if err != nil {
			return err
		}
		defer cmd.Process.Kill()
	}
	for _, base := range []string{baseA, baseB} {
		if err := waitWorkers(base, 2, 15*time.Second); err != nil {
			return err
		}
	}
	fmt.Fprintln(os.Stderr, "smoke-ha: 2 coordinators peered, 2 workers visible to both")

	_, key, _, err := drill.Submit(baseA, "", slowSpec)
	if err != nil {
		return err
	}

	// Identify the coordinator that granted the lease: grant counters are
	// local-only, so exactly one side shows the grant.
	granter, survivor, err := findGranter(baseA, baseB, 30*time.Second)
	if err != nil {
		return err
	}
	granterCmd, survivorBase := coA, baseB
	if granter == baseB {
		granterCmd, survivorBase = coB, baseA
	}

	// The claimed lease must be replicated to the survivor before the
	// kill — that replica is what the whole drill recovers from.
	if err := waitClaimState(survivor, key, "claimed", 30*time.Second); err != nil {
		return fmt.Errorf("lease never replicated to survivor: %w", err)
	}
	if err := granterCmd.Process.Kill(); err != nil {
		return err
	}
	granterCmd.Wait()
	fmt.Fprintf(os.Stderr, "smoke-ha: SIGKILLed granting coordinator %s; worker reports to it are now lost\n", granter)

	// On the survivor alone: lease expiry, reclaim, settle.
	if err := waitClaimState(survivorBase, key, "done", 3*time.Minute); err != nil {
		return fmt.Errorf("claim never settled on survivor: %w", err)
	}
	got, code, err := drill.Get(survivorBase + "/results/" + key)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("survivor GET /results/%s = %d", key, code)
	}
	if got != ref {
		return fmt.Errorf("survivor result differs from uninterrupted run:\n--- survivor ---\n%s--- reference ---\n%s", got, ref)
	}
	fmt.Fprintln(os.Stderr, "smoke-ha: survivor served byte-identical result bytes")

	metrics, _, err := drill.Get(survivorBase + "/metrics")
	if err != nil {
		return err
	}
	exp, err := drill.MetricValue(metrics, "slipd_lease_expirations_total")
	if err != nil {
		return err
	}
	if exp < 1 {
		return fmt.Errorf("survivor slipd_lease_expirations_total = %d, want >= 1:\n%s", exp, metrics)
	}
	if n, err := drill.MetricValue(metrics, `slipd_claims_total{outcome="done"}`); err != nil || n < 1 {
		return fmt.Errorf("survivor settled no claims (done=%d, err=%v):\n%s", n, err, metrics)
	}

	// Zero stranded jobs: every claim the survivor knows is terminal.
	claims, err := clusterClaims(survivorBase)
	if err != nil {
		return err
	}
	for _, c := range claims {
		if c.State != "done" && c.State != "failed" {
			return fmt.Errorf("stranded claim on survivor: %+v", c)
		}
	}
	fmt.Fprintf(os.Stderr, "smoke-ha: survivor expired %d lease(s), zero claims stranded\n", exp)
	return nil
}

// degradedDrill: a coordinator with zero workers still answers, locally.
func degradedDrill(bin string) error {
	ref, err := drill.ReferenceRun(bin, fastSpec)
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}

	coord, base, err := drill.Start(bin, "-no-persist", "-coordinator")
	if err != nil {
		return err
	}
	defer coord.Process.Kill()
	if err := drill.WaitReady(base, 10*time.Second); err != nil {
		return err
	}

	ready, _, err := drill.Get(base + "/readyz")
	if err != nil {
		return err
	}
	if !strings.Contains(ready, `"degraded":true`) {
		return fmt.Errorf("zero-worker coordinator readyz = %s, want degraded:true", ready)
	}

	id, _, _, err := drill.Submit(base, "", fastSpec)
	if err != nil {
		return err
	}
	if err := drill.WaitDone(base, id, 2*time.Minute); err != nil {
		return fmt.Errorf("degraded job: %w", err)
	}
	got, code, err := drill.Get(base + "/jobs/" + id + "/result")
	if err != nil {
		return err
	}
	if code != http.StatusOK || got != ref {
		return fmt.Errorf("degraded result: HTTP %d, bytes match=%v", code, got == ref)
	}

	metrics, _, err := drill.Get(base + "/metrics")
	if err != nil {
		return err
	}
	for _, want := range []string{
		"slipd_workers 0\n",
		"slipd_local_fallbacks_total 1",
	} {
		if !strings.Contains(metrics, want) {
			return fmt.Errorf("degraded metrics missing %q:\n%s", want, metrics)
		}
	}
	fmt.Fprintln(os.Stderr, "smoke-fleet: zero-worker coordinator executed locally in degraded mode")
	return drill.StopGracefully(coord)
}

// clusterView mirrors GET /cluster/workers.
type clusterView struct {
	Workers []struct {
		ID string `json:"id"`
	} `json:"workers"`
	Degraded bool `json:"degraded"`
}

func clusterWorkers(base string) (clusterView, error) {
	body, code, err := drill.Get(base + "/cluster/workers")
	if err != nil {
		return clusterView{}, err
	}
	if code != http.StatusOK {
		return clusterView{}, fmt.Errorf("GET /cluster/workers = %d: %s", code, body)
	}
	var cv clusterView
	if err := json.Unmarshal([]byte(body), &cv); err != nil {
		return clusterView{}, err
	}
	return cv, nil
}

// claimView mirrors one entry of GET /cluster/claims.
type claimView struct {
	Key       string `json:"key"`
	State     string `json:"state"`
	ClaimedBy string `json:"claimed_by"`
	Attempt   int    `json:"claim_attempt"`
}

func clusterClaims(base string) ([]claimView, error) {
	body, code, err := drill.Get(base + "/cluster/claims")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET /cluster/claims = %d: %s", code, body)
	}
	var cv struct {
		Claims []claimView `json:"claims"`
	}
	if err := json.Unmarshal([]byte(body), &cv); err != nil {
		return nil, err
	}
	return cv.Claims, nil
}

// waitWorkers polls the fleet view until n workers are visible.
func waitWorkers(base string, n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cv, err := clusterWorkers(base); err == nil && len(cv.Workers) >= n {
			return nil
		}
		time.Sleep(100 * time.Millisecond)
	}
	return fmt.Errorf("fewer than %d visible workers within %s", n, timeout)
}

// findClaimHolder polls the claim table until the job's key is leased to
// some worker, and returns that worker's id.
func findClaimHolder(base, key string, timeout time.Duration) (string, error) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		claims, err := clusterClaims(base)
		if err == nil {
			for _, c := range claims {
				if c.Key == key && c.State == "claimed" && c.ClaimedBy != "" {
					return c.ClaimedBy, nil
				}
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	return "", fmt.Errorf("claim for %s never leased to a worker within %s", key, timeout)
}

// waitClaimState polls one coordinator's claim table until the key
// reaches the wanted state.
func waitClaimState(base, key, state string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		claims, err := clusterClaims(base)
		if err == nil {
			for _, c := range claims {
				if c.Key == key && c.State == state {
					return nil
				}
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("claim %s never reached %q on %s within %s", key, state, base, timeout)
}

// findGranter polls two peered coordinators' metrics until exactly one
// of them has granted a lease (grant counters are local, never
// replicated) and returns (granter, survivor). Both granting is the
// rare double-claim race — legal for the fleet, but it would make this
// drill's lease-expiry assertion meaningless, so fail loudly instead.
func findGranter(a, b string, timeout time.Duration) (string, string, error) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		ga := grantedCount(a)
		gb := grantedCount(b)
		switch {
		case ga > 0 && gb == 0:
			return a, b, nil
		case gb > 0 && ga == 0:
			return b, a, nil
		case ga > 0 && gb > 0:
			return "", "", fmt.Errorf("both coordinators granted the lease (a=%d b=%d); double-claim race, rerun the drill", ga, gb)
		}
		time.Sleep(50 * time.Millisecond)
	}
	return "", "", fmt.Errorf("no coordinator granted the lease within %s", timeout)
}

func grantedCount(base string) int {
	metrics, code, err := drill.Get(base + "/metrics")
	if err != nil || code != http.StatusOK {
		return 0
	}
	n, err := drill.MetricValue(metrics, `slipd_claims_total{outcome="granted"}`)
	if err != nil {
		return 0
	}
	return n
}

// waitWorkerRunning polls a worker's own job list until something is
// actually executing there.
func waitWorkerRunning(base string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		body, code, err := drill.Get(base + "/jobs")
		if err == nil && code == http.StatusOK {
			var list struct {
				Jobs []struct {
					State string `json:"state"`
				} `json:"jobs"`
			}
			if json.Unmarshal([]byte(body), &list) == nil {
				for _, j := range list.Jobs {
					if j.State == "running" {
						return nil
					}
				}
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("worker %s never started executing within %s", base, timeout)
}
