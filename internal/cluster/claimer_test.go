package cluster

import (
	"strings"
	"testing"
)

// A worker id the wire format refuses would get every claim poll
// answered 400; StartClaimer refuses it up front instead.
func TestStartClaimerRejectsBadWorkerID(t *testing.T) {
	c, err := StartClaimer(ClaimerConfig{Coordinators: []string{"http://127.0.0.1:1"}, ID: "a b"})
	if err == nil {
		c.Stop()
		t.Fatal("StartClaimer accepted a worker id with a space")
	}
	if !strings.Contains(err.Error(), "worker id contains byte 0x20") {
		t.Fatalf("err = %v, want the worker id check", err)
	}
}

// With no coordinator to claim from, the loop would run forever
// granted nothing; StartClaimer refuses instead.
func TestStartClaimerRejectsNoCoordinators(t *testing.T) {
	c, err := StartClaimer(ClaimerConfig{ID: "w1"})
	if err == nil {
		c.Stop()
		t.Fatal("StartClaimer accepted an empty coordinator list")
	}
}
