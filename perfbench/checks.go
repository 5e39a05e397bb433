package main

// Output and counter fingerprints recorded from the unmodified
// simulator. The simulator is deterministic, so every run must
// reproduce them exactly: a performance change that moves any of them
// changed behaviour. A change that alters the model on purpose updates
// them here (the mismatch message prints the new value) together with
// server.CacheKeyVersion.

// recorded is one matrix's fingerprint.
type recorded struct {
	output   string // sha256 of the rendered figures
	counters string // sha256 of every cell's simulated counters (traced replay)
	mrefs    uint64 // Σ Proc.Loads+Stores over the matrix's cells
}

var (
	staticRecorded = recorded{
		output:   "889defc223a868ef78acab2d088f09321c2ae71483df268fe317a5088cb17c07",
		counters: "ecc1d57527b4cb14fa58c522bdc723c79f84acc11170f6fa2ae6ac009dc82e73",
		mrefs:    2731203,
	}
	// campaignRecorded fingerprints the fleet workload's campaigns: the
	// result bytes of its distinct cells in cell order, the replayed
	// counters and the total memory references.
	campaignRecorded = recorded{
		output:   "6c01bcdb1dce8761ec5d0fdd23ba218208566bba188f0d94f25babd2ea1b8bff",
		counters: "7140f4370c08ea74e20ac3c85f4cab55fb2b60677b00f1e499e073921b9b4077",
		mrefs:    1326363,
	}
)
