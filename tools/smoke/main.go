// Command smoke is the end-to-end check behind `make smoke`. Phase one
// starts a memory-only one-worker slipd, submits a CG scaling job over
// HTTP, asserts the rendered speedup table comes back with a 200,
// cancels a job queued behind a running suite job and requires a
// resubmission of its spec to run as a fresh job, cancels the running
// suite job and asserts it settles as failed, requires the queued gauge
// to read 0 once the queue drains, then sends SIGTERM and asserts the
// daemon drains and exits 0. Phase two is the crash-recovery drill: a
// persistent slipd is SIGKILLed mid-job, restarted on the same
// -data-dir, and must requeue the interrupted job (producing
// byte-identical output to an uninterrupted run), serve the already-done
// job from disk without re-executing it, and — after a clean SIGTERM —
// restart with zero requeues.
package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/tools/internal/drill"
)

// fastSpec finishes in seconds; slowSpec runs long enough that a signal
// reliably lands while it is still executing; queuedSpec waits behind
// slowSpec on a one-worker daemon.
const (
	fastSpec   = `{"kind":"scaling","kernel":"CG","node_counts":[2,4],"scale":"test"}`
	slowSpec   = `{"kind":"static","kernels":["CG"],"nodes":8,"scale":"small"}`
	queuedSpec = `{"kind":"run","kernel":"MG","nodes":4}`
)

func main() {
	bin := "bin/slipd"
	if len(os.Args) > 1 {
		bin = os.Args[1]
	}
	if err := run(bin); err != nil {
		fmt.Fprintln(os.Stderr, "smoke: FAILED:", err)
		os.Exit(1)
	}
	if err := crashRecovery(bin); err != nil {
		fmt.Fprintln(os.Stderr, "smoke: FAILED:", err)
		os.Exit(1)
	}
	fmt.Println("smoke: PASSED")
}

func run(bin string) error {
	cmd, base, err := drill.Start(bin, "-no-persist", "-workers", "1")
	if err != nil {
		return err
	}
	defer cmd.Process.Kill()

	if err := drill.WaitHealthy(base, 10*time.Second); err != nil {
		return err
	}

	// One CG fixed-size scaling study at test scale: small enough to run
	// in seconds, and its result is a real speedup table.
	id, _, _, err := drill.Submit(base, "", fastSpec)
	if err != nil {
		return err
	}
	if err := drill.WaitDone(base, id, 2*time.Minute); err != nil {
		return err
	}

	result, code, err := drill.Get(base + "/jobs/" + id + "/result")
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET result = %d, want 200: %s", code, result)
	}
	for _, want := range []string{"Fixed-size scaling, CG", "speedup"} {
		if !strings.Contains(result, want) {
			return fmt.Errorf("result missing %q:\n%s", want, result)
		}
	}
	fmt.Fprintf(os.Stderr, "smoke: got speedup table:\n%s", result)

	metrics, _, err := drill.Get(base + "/metrics")
	if err != nil {
		return err
	}
	if !strings.Contains(metrics, "slipd_runs_total 1") {
		return fmt.Errorf("metrics missing slipd_runs_total 1:\n%s", metrics)
	}

	// Cancellation: DELETE a running job and assert it settles as failed
	// without wedging the worker or the later drain. A small-scale suite
	// is slow enough to still be running when the DELETE lands, and it
	// holds the only worker, so a job submitted meanwhile stays queued.
	slowID, _, _, err := drill.Submit(base, "", slowSpec)
	if err != nil {
		return err
	}
	if err := drill.WaitState(base, slowID, "running", 30*time.Second); err != nil {
		return err
	}
	queuedID, _, _, err := drill.Submit(base, "", queuedSpec)
	if err != nil {
		return err
	}
	if v, err := cancelJob(base, queuedID); err != nil {
		return err
	} else if v.State != "failed" || !strings.Contains(v.Error, "cancel") {
		return fmt.Errorf("cancelled queued job is %q (error %q), want failed/cancelled", v.State, v.Error)
	}
	// The cancelled job left single-flight: the same spec is a new job
	// (drill.Submit requires 201, not a 200 dedup onto the cancelled one).
	freshID, _, _, err := drill.Submit(base, "", queuedSpec)
	if err != nil {
		return fmt.Errorf("resubmitting a cancelled queued job's spec: %w", err)
	}
	if freshID == queuedID {
		return fmt.Errorf("resubmission coalesced onto cancelled job %s", queuedID)
	}
	fmt.Fprintln(os.Stderr, "smoke: cancelled queued job; its spec resubmits as a fresh job")

	if _, err := cancelJob(base, slowID); err != nil {
		return err
	}
	v, err := drill.WaitTerminal(base, slowID, 2*time.Minute)
	if err != nil {
		return err
	}
	if v.State != "failed" || !strings.Contains(v.Error, "cancel") {
		return fmt.Errorf("cancelled job settled as %q (error %q), want failed/cancelled", v.State, v.Error)
	}
	fmt.Fprintln(os.Stderr, "smoke: cancelled running job settled as failed")

	if err := drill.WaitDone(base, freshID, 2*time.Minute); err != nil {
		return fmt.Errorf("resubmitted job: %w", err)
	}
	metrics, _, err = drill.Get(base + "/metrics")
	if err != nil {
		return err
	}
	if !strings.Contains(metrics, `slipd_jobs{state="queued"} 0`+"\n") {
		return fmt.Errorf("queue drained but metrics do not show slipd_jobs{state=\"queued\"} 0:\n%s", metrics)
	}
	fmt.Fprintln(os.Stderr, "smoke: resubmitted job done, queued gauge back to 0")

	return drill.StopGracefully(cmd)
}

// cancelJob DELETEs a job and returns the view the daemon answers with.
func cancelJob(base, id string) (drill.JobView, error) {
	req, err := http.NewRequest(http.MethodDelete, base+"/jobs/"+id, nil)
	if err != nil {
		return drill.JobView{}, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return drill.JobView{}, err
	}
	defer resp.Body.Close()
	var v drill.JobView
	if resp.StatusCode != http.StatusOK {
		return v, fmt.Errorf("DELETE /jobs/%s = %d, want 200", id, resp.StatusCode)
	}
	return v, json.NewDecoder(resp.Body).Decode(&v)
}

// crashRecovery is the durability drill: SIGKILL a persistent slipd
// mid-job and assert the restart recovers everything the journal
// promised.
func crashRecovery(bin string) error {
	// Reference bytes from an uninterrupted run on a throwaway
	// memory-only instance: the recovered run must match these exactly.
	ref, err := drill.ReferenceRun(bin, slowSpec)
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}

	dataDir, err := os.MkdirTemp("", "slipd-smoke-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dataDir)

	// Instance A: complete one fast job, then get SIGKILLed while the
	// slow one is running.
	cmdA, baseA, err := drill.Start(bin, "-data-dir", dataDir)
	if err != nil {
		return err
	}
	defer cmdA.Process.Kill()
	if err := drill.WaitReady(baseA, 10*time.Second); err != nil {
		return err
	}
	fastID, fastKey, _, err := drill.Submit(baseA, "", fastSpec)
	if err != nil {
		return err
	}
	if err := drill.WaitDone(baseA, fastID, 2*time.Minute); err != nil {
		return err
	}
	fastRef, code, err := drill.Get(baseA + "/jobs/" + fastID + "/result")
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET fast result = %d", code)
	}
	slowID, _, _, err := drill.Submit(baseA, "", slowSpec)
	if err != nil {
		return err
	}
	if err := drill.WaitState(baseA, slowID, "running", 30*time.Second); err != nil {
		return err
	}
	if err := cmdA.Process.Kill(); err != nil { // SIGKILL: no drain, no flush
		return err
	}
	cmdA.Wait()
	fmt.Fprintf(os.Stderr, "smoke: SIGKILLed slipd while %s was running\n", slowID)

	// Instance B: same data dir. Replay must requeue the interrupted job
	// under the same id and finish it with the reference bytes, and must
	// serve the fast job's result from disk without re-executing it.
	cmdB, baseB, err := drill.Start(bin, "-data-dir", dataDir)
	if err != nil {
		return err
	}
	defer cmdB.Process.Kill()
	if err := drill.WaitReady(baseB, 10*time.Second); err != nil {
		return err
	}
	v, err := drill.Job(baseB, slowID)
	if err != nil {
		return fmt.Errorf("interrupted job after restart: %w", err)
	}
	if !v.Restored || v.Attempts != 2 {
		return fmt.Errorf("interrupted job = restored=%v attempts=%d, want restored attempts=2", v.Restored, v.Attempts)
	}
	if err := drill.WaitDone(baseB, slowID, 3*time.Minute); err != nil {
		return fmt.Errorf("requeued job: %w", err)
	}
	recovered, code, err := drill.Get(baseB + "/jobs/" + slowID + "/result")
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET recovered result = %d", code)
	}
	if recovered != ref {
		return fmt.Errorf("recovered run differs from uninterrupted run:\n--- recovered ---\n%s--- reference ---\n%s", recovered, ref)
	}
	fmt.Fprintln(os.Stderr, "smoke: requeued job produced byte-identical output")

	_, _, cached, err := drill.Submit(baseB, "", fastSpec)
	if err != nil {
		return err
	}
	if !cached {
		return fmt.Errorf("resubmitted fast spec was not served from the result store")
	}
	byKey, code, err := drill.Get(baseB + "/results/" + fastKey)
	if err != nil {
		return err
	}
	if code != http.StatusOK || byKey != fastRef {
		return fmt.Errorf("GET /results/%s = %d, bytes match=%v", fastKey, code, byKey == fastRef)
	}
	metrics, _, err := drill.Get(baseB + "/metrics")
	if err != nil {
		return err
	}
	for _, want := range []string{
		"slipd_jobs_requeued_total 1",
		"slipd_jobs_recovered_total 1",
		"slipd_runs_total 1", // only the requeued job ran; the fast one came off disk
	} {
		if !strings.Contains(metrics, want) {
			return fmt.Errorf("metrics missing %q after recovery:\n%s", want, metrics)
		}
	}
	fmt.Fprintln(os.Stderr, "smoke: done job served from disk, recovery metrics correct")
	if err := drill.StopGracefully(cmdB); err != nil {
		return err
	}

	// Instance C: after a clean SIGTERM drain the journal holds only
	// terminal records, so this restart must recover everything and
	// requeue nothing.
	cmdC, baseC, err := drill.Start(bin, "-data-dir", dataDir)
	if err != nil {
		return err
	}
	defer cmdC.Process.Kill()
	if err := drill.WaitReady(baseC, 10*time.Second); err != nil {
		return err
	}
	metrics, _, err = drill.Get(baseC + "/metrics")
	if err != nil {
		return err
	}
	// Three terminal jobs in the journal: the fast run, the recovered
	// slow run, and the cached resubmission from instance B.
	if !strings.Contains(metrics, "slipd_jobs_requeued_total 0") ||
		!strings.Contains(metrics, "slipd_jobs_recovered_total 3") {
		return fmt.Errorf("clean restart requeued work:\n%s", metrics)
	}
	fmt.Fprintln(os.Stderr, "smoke: clean restart recovered 3 jobs, requeued 0")
	return drill.StopGracefully(cmdC)
}
