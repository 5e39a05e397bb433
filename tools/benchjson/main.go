// Command benchjson converts `go test -bench` output on stdin into a
// machine-readable JSON file, so benchmark numbers land in version
// control in a diffable shape (see `make bench`). The text stream is
// echoed through to stdout untouched.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// Bench is one benchmark result row.
type Bench struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_op"`
	BytesPerOp  int64   `json:"bytes_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_op,omitempty"`
}

func main() {
	out := flag.String("o", "BENCH.json", "output file")
	flag.Parse()
	benches, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(benches) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	data, err := json.MarshalIndent(benches, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d results to %s\n", len(benches), *out)
}

// parse scans stdin for benchmark result lines of the form
//
//	BenchmarkName-8   10   123456 ns/op   512 B/op   7 allocs/op
//
// echoing every line through so the human-readable stream survives.
// Names are recorded without the "-N" that go test appends when
// GOMAXPROCS is N > 1, so a baseline recorded on one host compares by
// name with a candidate run on another (CI pins GOMAXPROCS=4).
// benchjson reads the GOMAXPROCS of its own process, which `make bench`
// runs in the same environment as the go test it reads.
func parse(f *os.File) ([]Bench, error) {
	var benches []Bench
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line)
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		b := Bench{Name: trimProcs(fields[0], runtime.GOMAXPROCS(0)), Iterations: iters}
		for i := 2; i+1 < len(fields); i += 2 {
			val := fields[i]
			switch fields[i+1] {
			case "ns/op":
				b.NsPerOp, err = strconv.ParseFloat(val, 64)
			case "B/op":
				b.BytesPerOp, err = strconv.ParseInt(val, 10, 64)
			case "allocs/op":
				b.AllocsPerOp, err = strconv.ParseInt(val, 10, 64)
			default:
				continue
			}
			if err != nil {
				return nil, fmt.Errorf("bad value %q in %q: %v", val, line, err)
			}
		}
		benches = append(benches, b)
	}
	return benches, sc.Err()
}

// trimProcs removes the "-procs" suffix go test gives benchmark names
// when GOMAXPROCS is procs > 1.
func trimProcs(name string, procs int) string {
	if procs <= 1 {
		return name
	}
	return strings.TrimSuffix(name, "-"+strconv.Itoa(procs))
}
