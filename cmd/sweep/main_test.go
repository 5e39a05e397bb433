package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/server"
)

// compileArgs maps a sweep command line to its spec and compiles it, the
// path main takes before it executes anything, and returns the compiled
// (normalized) spec.
func compileArgs(args string) (experiments.Spec, error) {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	study, _, _, err := parseArgs(fs, strings.Fields(args))
	if err != nil {
		return experiments.Spec{}, err
	}
	return study.Spec, nil
}

func TestParseIntsValid(t *testing.T) {
	got, err := parseInts(" 2, 4 ,8,16")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []int{2, 4, 8, 16}) {
		t.Fatalf("parsed %v", got)
	}
}

// TestParseIntsRejections: parseInts refuses what is not a number, and
// experiments.Compile, the validator slipd uses too, refuses the rest of
// a bad count list.
func TestParseIntsRejections(t *testing.T) {
	cases := []struct {
		args string
		want string // distinguishing fragment of the error
	}{
		{"-study scaling -nodes 2,x,8", "not a number"},
		{"-study scaling -nodes 2,,8", "not a number"},
		{"-study scaling -nodes 2,0,8", "below the minimum"},
		{"-study tokens -tokens -1", "below the minimum"},
		{"-study scaling -nodes 2,4,2", "duplicate node_counts value 2"},
		{"-study tasks -cutoffs 4,2,4", "duplicate cutoffs value 4"},
	}
	for _, c := range cases {
		_, err := compileArgs(c.args)
		if err == nil {
			t.Fatalf("sweep %s accepted", c.args)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Fatalf("sweep %s = %v, want error mentioning %q", c.args, err, c.want)
		}
	}
}

// TestCompileErrorsNameTheFlag: a value experiments.Compile refuses is
// reported against the sweep flag that set it, not only the spec field
// the message names, with the message itself unchanged.
func TestCompileErrorsNameTheFlag(t *testing.T) {
	for _, c := range []struct{ args, want string }{
		{"-study scaling -nodes 2,0,8", "-nodes: node_counts value 0 is below the minimum 1"},
		{"-study chaos -at 100", "-at: machine: node count 100 out of range"},
		{"-study tokens -at 4 -tokens 0,2000", "-tokens: token_counts value 2000 is above the maximum 1024"},
		{"-study scaling -kernel XX", "-kernel: "},
		{"-study tasks -cutoffs 2,2", "-cutoffs: duplicate cutoffs value 2"},
		{"-study chaos -scale huge", "-scale: "},
	} {
		_, err := compileArgs(c.args)
		if err == nil || !strings.HasPrefix(err.Error(), c.want) {
			t.Errorf("sweep %s: error %v, want one starting %q", c.args, err, c.want)
		}
		var fe *experiments.FieldError
		if !errors.As(err, &fe) {
			t.Errorf("sweep %s: error %v does not wrap the compile error's *experiments.FieldError", c.args, err)
		}
	}
}

// TestRefusesUnreadFlags: a flag the study does not read is refused when
// set, naming the flag and the study, and so is a value a spec would
// read as "use the default" instead of itself.
func TestRefusesUnreadFlags(t *testing.T) {
	f := strings.Fields
	for _, c := range []struct {
		args []string
		want string
	}{
		{f("-study chaos -kernel CG -nodes 4 -scale test"), "-study chaos does not read -nodes"},
		{f("-study chaos -verify=true"), "-study chaos does not read -verify"},
		{f("-study scaling -at 4"), "-study scaling does not read -at"},
		{f("-study tokens -faults 7:0.5"), "-study tokens does not read -faults"},
		{f("-study characterize -scale test"), "-study characterize does not read -scale"},
		{f("-study tasks -kernel CG"), "-study tasks does not read -kernel"},
		{f("-study tasks -tokens 1"), "-study tasks does not read -tokens"},
		{f("-study chaos -faults 0:0.5"), "seed 0"},
		{f("-study tokens -at 0"), "nodes 0"},
		{[]string{"-study", "chaos", "-kernel", " "}, "empty kernel filter"},
		{f("-study static"), `unknown study "static"`},
	} {
		fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		if _, _, _, err := parseArgs(fs, c.args); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("sweep %q: error %v, want one mentioning %q", c.args, err, c.want)
		}
	}
}

// TestGoldenInvocationsKeyAsTestGolden ties the CLI gate to TestGolden:
// each sweep invocation `make golden` checks against a golden file must
// run under the same cache key as the spec TestGolden executes for that
// file, so the two gates check one study.
func TestGoldenInvocationsKeyAsTestGolden(t *testing.T) {
	makefile, err := os.ReadFile(filepath.Join("..", "..", "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(server.Config{Workers: 1})
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	invocation := regexp.MustCompile(`bin/sweep (.*) \| cmp - \$\(GOLDEN\)/(\w+)\.txt`)
	found := map[string]bool{}
	for _, m := range invocation.FindAllStringSubmatch(string(makefile), -1) {
		args, kind := strings.ReplaceAll(m[1], "$$j", "1"), m[2]
		found[kind] = true
		spec, err := compileArgs(args)
		if err != nil {
			t.Fatalf("sweep %s: %v", args, err)
		}
		specJSON, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.CacheKeyFor(specJSON)
		if err != nil {
			t.Fatal(err)
		}
		golden, err := os.ReadFile(filepath.Join("..", "..", "internal", "server", "testdata", "golden", kind+".json"))
		if err != nil {
			t.Fatal(err)
		}
		want, err := s.CacheKeyFor(golden)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("sweep %s keys %s, TestGolden's %s spec keys %s", args, got, kind, want)
		}
	}
	for _, kind := range []string{"scaling", "tokens", "characterize", "chaos", "tasks"} {
		if !found[kind] {
			t.Errorf("make golden checks no sweep invocation against %s.txt", kind)
		}
	}
}
