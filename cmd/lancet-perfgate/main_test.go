package main

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

const benchOutput = `goos: linux
goarch: amd64
pkg: lancet
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkPlanCold-8 	     100	   5533399 ns/op	 2023975 B/op	   40809 allocs/op
BenchmarkPlanCold-8 	     100	   5431263 ns/op	 2023979 B/op	   40809 allocs/op
ok  	lancet	1.674s
BenchmarkPartitionDP 	     100	      2277 ns/op	       0 B/op	       0 allocs/op
BenchmarkPartitionDP 	     100	      2178 ns/op	      24 B/op	       1 allocs/op
BenchmarkCostBatchLookup-16 	     100	       318.6 ns/op	       0 B/op	       0 allocs/op
BenchmarkNoReportAllocs-2 	     100	       512 ns/op
PASS
`

func TestParseBenchTakesMinAndStripsProcs(t *testing.T) {
	mins, err := parseBench(strings.NewReader(benchOutput))
	if err != nil {
		t.Fatal(err)
	}
	pc, ok := mins["BenchmarkPlanCold"]
	if !ok {
		t.Fatal("GOMAXPROCS suffix not stripped")
	}
	if pc.ns != 5431263 || pc.allocs != 40809 || pc.bytes != 2023975 {
		t.Errorf("PlanCold min = %+v, want ns 5431263 allocs 40809 bytes 2023975", pc)
	}
	// Min is taken per metric: the 2178 ns run had 1 alloc of 24 B, the
	// 2277 ns run had 0 — the gate should see the best of each.
	dp := mins["BenchmarkPartitionDP"]
	if dp.ns != 2178 || dp.allocs != 0 || dp.bytes != 0 {
		t.Errorf("PartitionDP min = %+v, want ns 2178 allocs 0 bytes 0", dp)
	}
	if cl := mins["BenchmarkCostBatchLookup"]; cl.ns != 318.6 || cl.allocs != 0 || cl.bytes != 0 {
		t.Errorf("CostBatchLookup min = %+v", cl)
	}
	// A run without b.ReportAllocs reports neither count.
	if nr := mins["BenchmarkNoReportAllocs"]; nr.ns != 512 || nr.allocs != -1 || nr.bytes != -1 {
		t.Errorf("NoReportAllocs min = %+v, want ns 512 and no counts", nr)
	}
}

func TestGate(t *testing.T) {
	mins, err := parseBench(strings.NewReader(benchOutput))
	if err != nil {
		t.Fatal(err)
	}
	floors := []floor{
		{name: "BenchmarkPlanCold", ns: 5_600_000, allocs: 42_000, bytes: 2_000_000},
		{name: "BenchmarkPartitionDP", ns: 2400, allocs: 0, bytes: 0},
		{name: "BenchmarkCostBatchLookup", ns: 350, allocs: 0, bytes: 0},
	}
	if v := gate(floors, mins, 2.0); len(v) != 0 {
		t.Errorf("within-floor run flagged: %v", v)
	}

	// ns regression beyond the tolerance trips the gate.
	tight := []floor{{name: "BenchmarkPlanCold", ns: 1_000_000, allocs: 42_000, bytes: 2_100_000}}
	v := gate(tight, mins, 2.0)
	if len(v) != 1 || !strings.Contains(v[0], "ns/op") {
		t.Errorf("5.4ms vs 1ms floor at x2 should regress: %v", v)
	}

	// allocs are exact: one alloc over the floor fails even with slack ns.
	exact := []floor{{name: "BenchmarkPlanCold", ns: 5_600_000, allocs: 40_808, bytes: 2_100_000}}
	v = gate(exact, mins, 2.0)
	if len(v) != 1 || !strings.Contains(v[0], "allocs/op") {
		t.Errorf("40809 vs 40808 alloc floor should regress: %v", v)
	}

	// B/op passes up to floor x bytesTolerance (2,023,975 is within 1.10 of
	// 1,840,000) and fails past it, whatever the ns tolerance.
	within := []floor{{name: "BenchmarkPlanCold", ns: 5_600_000, allocs: 42_000, bytes: 1_840_000}}
	if v := gate(within, mins, 2.0); len(v) != 0 {
		t.Errorf("B/op within x%g of its floor flagged: %v", bytesTolerance, v)
	}
	over := []floor{{name: "BenchmarkPlanCold", ns: 5_600_000, allocs: 42_000, bytes: 1_830_000}}
	v = gate(over, mins, 100)
	if len(v) != 1 || !strings.Contains(v[0], "B/op") {
		t.Errorf("2,023,975 vs 1,830,000 B/op floor should regress: %v", v)
	}

	// A floored benchmark absent from the output must not pass silently,
	// and neither may one that reports no allocation counts.
	missing := []floor{
		{name: "BenchmarkNetsimDrain", ns: 1100, allocs: 0, bytes: 0},
		{name: "BenchmarkNoReportAllocs", ns: 1000, allocs: 0, bytes: 0},
	}
	v = gate(missing, mins, 2.0)
	if len(v) != 3 || !strings.Contains(v[0], "not found") ||
		!strings.Contains(v[1], "no allocs/op") || !strings.Contains(v[2], "no B/op") {
		t.Errorf("missing benchmark and counts should regress: %v", v)
	}
}

func TestReadFloors(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "perf_floor.txt")
	content := "# comment\n\nBenchmarkPlanCold 5600000 42000 2000000\nBenchmarkPartitionDP 2400 0 0\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	floors, err := readFloors(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(floors) != 2 || floors[0].name != "BenchmarkPlanCold" || floors[0].ns != 5600000 ||
		floors[0].bytes != 2000000 || floors[1].allocs != 0 || floors[1].bytes != 0 {
		t.Errorf("floors = %+v", floors)
	}

	for _, bad := range []string{
		"", "# only comments\n", "Bench 12\n", "Bench 100 0\n", "Bench x 0 0\n", "Bench 100 -1 0\n",
		"Bench 100 0 -1\n", "Bench 100 0 x\n", "Bench 100 0 0 0\n",
	} {
		if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := readFloors(path); err == nil {
			t.Errorf("floor file %q should be rejected", bad)
		}
	}
}

// TestRatchetListsNameEveryFloor checks that every place naming the
// ratcheted benchmarks names exactly the ones perf_floor.txt floors: the
// -bench regex of CI's Perf ratchet step, of perf_floor.txt's refresh
// comment and of README's gate command, and the prose lists in README and
// DESIGN.md §13. A floored benchmark missing from a regex fails the gate
// as "not found in bench output"; one missing from a list misleads.
func TestRatchetListsNameEveryFloor(t *testing.T) {
	root := filepath.Join("..", "..")
	floors, err := readFloors(filepath.Join(root, "perf_floor.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, f := range floors {
		want = append(want, f.name)
	}
	slices.Sort(want)
	read := func(name string) string {
		t.Helper()
		data, err := os.ReadFile(filepath.Join(root, name))
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	check := func(where string, got []string) {
		t.Helper()
		slices.Sort(got)
		var missing, extra []string
		for _, n := range want {
			if !slices.Contains(got, n) {
				missing = append(missing, n)
			}
		}
		for _, n := range got {
			if !slices.Contains(want, n) {
				extra = append(extra, n)
			}
		}
		if len(missing) > 0 || len(extra) > 0 || len(got) != len(want) {
			t.Errorf("%s: missing floored %v, names unfloored %v (%d names, %d floors)",
				where, missing, extra, len(got), len(want))
		}
	}
	for _, name := range []string{".github/workflows/ci.yml", "perf_floor.txt", "README.md"} {
		regexes := benchRegexes(read(name))
		if len(regexes) != 1 {
			t.Errorf("%s: %d quoted -bench regexes, want 1", name, len(regexes))
			continue
		}
		var got []string
		for _, alt := range strings.Split(regexes[0], "|") {
			got = append(got, strings.TrimSuffix(alt, "$"))
		}
		check(name+" -bench regex", got)
	}
	for _, list := range []struct{ file, from, to string }{
		{"README.md", "benchmark). CI runs", "feeds the"},
		{"DESIGN.md", "**Ratchet policy.**", "layers each have one"},
	} {
		text := read(list.file)
		i := strings.Index(text, list.from)
		j := strings.Index(text[max(i, 0):], list.to)
		if i < 0 || j < 0 {
			t.Errorf("%s: no list between %q and %q", list.file, list.from, list.to)
			continue
		}
		check(list.file+" list", benchName.FindAllString(text[i:i+j], -1))
	}
}

// benchName matches a benchmark function name.
var benchName = regexp.MustCompile(`Benchmark[A-Za-z0-9]+`)

// benchRegexes returns the single-quoted arguments of every -bench flag in
// text.
func benchRegexes(text string) []string {
	var out []string
	for {
		_, after, ok := strings.Cut(text, "-bench '")
		if !ok {
			return out
		}
		re, rest, _ := strings.Cut(after, "'")
		out = append(out, re)
		text = rest
	}
}
