// Scaling: the paper's motivating experiment. A fixed-size problem is run
// on growing machines in all three modes. Speedup from extra CMPs
// saturates (and then reverses) for single and double mode once
// communication dominates; slipstream keeps improving because the second
// processor of each CMP attacks latency instead of splitting the work.
//
//	go run ./examples/scaling
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"repro/internal/experiments"
	"repro/internal/npb"
)

func main() {
	kernel := "MG"
	if len(os.Args) > 1 {
		kernel = os.Args[1]
	}
	// jobs = 0: fan the independent (machine size × mode) runs out over
	// every host CPU; the rows come back in deterministic order anyway.
	rows, err := experiments.RunScalingCtx(context.Background(), kernel, []int{2, 4, 8, 16}, npb.ScaleSmall, 0, true, os.Stderr)
	if err != nil {
		log.Fatal(err)
	}
	experiments.PrintScaling(kernel, rows, os.Stdout)

	// Find where doubling the tasks stops paying.
	fmt.Println()
	for i := 1; i < len(rows); i++ {
		prev, cur := rows[i-1], rows[i]
		if cur.Walls["double"] >= prev.Walls["double"] && cur.Walls["slip-G0"] < prev.Walls["slip-G0"] {
			fmt.Printf("between %d and %d CMPs, double mode stops scaling while slipstream still improves —\n",
				prev.Nodes, cur.Nodes)
			fmt.Println("the regime the paper targets (\"apply additional resources to reduce")
			fmt.Println("communication overhead, rather than to increase parallelism\").")
			return
		}
	}
	last := rows[len(rows)-1]
	fmt.Printf("at %d CMPs: single=%d double=%d slipstream=%d cycles\n",
		last.Nodes, last.Walls["single"], last.Walls["double"], last.Walls["slip-G0"])
}
