// Command lancet-perfgate is the CI perf ratchet (DESIGN.md §13): it reads
// `go test -bench` output on stdin, takes the per-benchmark minimum across
// -count repetitions, and compares it against the committed floors in
// perf_floor.txt. ns/op floors carry a generous multiplicative tolerance
// (shared CI runners are slow and noisy; only order-of-magnitude
// regressions should trip); allocs/op floors are exact — an allocation
// sneaking back into a zero-alloc inner loop fails the build no matter how
// fast the runner is; B/op floors allow a fixed x1.10 slack, for pooled
// scratch that a collection drops and a run re-allocates, so allocation
// volume that grows back at unchanged object counts fails the build too.
//
// Usage:
//
//	go test -run '^$' -bench 'BenchmarkPlanCold$' -benchtime 100x -count 3 . |
//	    lancet-perfgate -floor perf_floor.txt
//	go test -bench ... | lancet-perfgate -write   # print fresh floor lines
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"
)

// bytesTolerance is the B/op slack: a benchmark passes while its measured
// minimum is at most floor × bytesTolerance. Allocation volume depends on
// neither the runner's speed nor its load, so the slack is a constant, not
// a flag like the ns/op tolerance.
const bytesTolerance = 1.10

func main() {
	log.SetFlags(0)
	log.SetPrefix("lancet-perfgate: ")
	var (
		floorPath = flag.String("floor", "perf_floor.txt", "committed floor file: one '<benchmark> <ns/op> <allocs/op> <B/op>' per line")
		tol       = flag.Float64("tol", 2.0, "ns/op tolerance multiplier (allocs/op is always exact)")
		write     = flag.Bool("write", false, "print floor lines for the measured minima instead of gating")
	)
	flag.Parse()

	mins, err := parseBench(os.Stdin)
	if err != nil {
		log.Fatal(err)
	}
	if *write {
		names := make([]string, 0, len(mins))
		for n := range mins {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			m := mins[n]
			fmt.Printf("%s %d %d %d\n", n, int64(m.ns), m.allocs, m.bytes)
		}
		return
	}

	floors, err := readFloors(*floorPath)
	if err != nil {
		log.Fatal(err)
	}
	violations := gate(floors, mins, *tol)
	for _, v := range violations {
		fmt.Println("REGRESSED:", v)
	}
	if len(violations) > 0 {
		log.Fatalf("%d of %d perf floors violated (floor %s, ns tolerance x%g, B/op tolerance x%g)",
			len(violations), len(floors), *floorPath, *tol, bytesTolerance)
	}
	fmt.Printf("perf gate ok: %d benchmarks within floors (%s, ns tolerance x%g, B/op tolerance x%g)\n",
		len(floors), *floorPath, *tol, bytesTolerance)
}

// sample is one benchmark's best (minimum) observation. allocs and bytes
// are -1 when the output reports none.
type sample struct {
	ns     float64
	allocs int64
	bytes  int64
}

// parseBench extracts ns/op, allocs/op and B/op from `go test -bench`
// output and keeps the minimum of each per benchmark across repetitions.
// The -GOMAXPROCS suffix is stripped so floors are portable across runner
// core counts.
func parseBench(r io.Reader) (map[string]sample, error) {
	mins := make(map[string]sample)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		name := stripProcs(f[0])
		s := sample{allocs: -1, bytes: -1}
		// After "name N" the line is (value, unit) pairs.
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, fmt.Errorf("%s: bad value %q", name, f[i])
			}
			switch f[i+1] {
			case "ns/op":
				s.ns = v
			case "allocs/op":
				s.allocs = int64(v)
			case "B/op":
				s.bytes = int64(v)
			}
		}
		if s.ns == 0 {
			continue // a benchmark without ns/op (custom metrics only)
		}
		if prev, ok := mins[name]; ok {
			s.ns = min(s.ns, prev.ns)
			s.allocs = minReported(s.allocs, prev.allocs)
			s.bytes = minReported(s.bytes, prev.bytes)
		}
		mins[name] = s
	}
	return mins, sc.Err()
}

// minReported is the smaller of two counts, where -1 means not reported.
func minReported(a, b int64) int64 {
	if a < 0 || (b >= 0 && b < a) {
		return b
	}
	return a
}

// stripProcs removes a trailing -N GOMAXPROCS suffix, if any.
func stripProcs(name string) string {
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

// floor is one committed line of perf_floor.txt.
type floor struct {
	name   string
	ns     float64
	allocs int64
	bytes  int64
}

func readFloors(path string) ([]floor, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var floors []floor
	for ln, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 4 {
			return nil, fmt.Errorf("%s:%d: want '<benchmark> <ns/op> <allocs/op> <B/op>', got %q", path, ln+1, line)
		}
		ns, err1 := strconv.ParseFloat(f[1], 64)
		allocs, err2 := strconv.ParseInt(f[2], 10, 64)
		bytes, err3 := strconv.ParseInt(f[3], 10, 64)
		if err1 != nil || err2 != nil || err3 != nil || ns <= 0 || allocs < 0 || bytes < 0 {
			return nil, fmt.Errorf("%s:%d: bad floor %q", path, ln+1, line)
		}
		floors = append(floors, floor{name: f[0], ns: ns, allocs: allocs, bytes: bytes})
	}
	if len(floors) == 0 {
		return nil, fmt.Errorf("%s: no floors — the gate would be vacuous", path)
	}
	return floors, nil
}

// gate compares measured minima against the floors: ns/op within
// floor*tol, allocs/op exact, B/op within floor*bytesTolerance. A floored
// benchmark missing from the input, or reporting no allocs/op or B/op
// (run without b.ReportAllocs or -benchmem), is a violation — a silently
// skipped check must not pass the gate.
func gate(floors []floor, mins map[string]sample, tol float64) []string {
	var out []string
	for _, f := range floors {
		m, ok := mins[f.name]
		if !ok {
			out = append(out, fmt.Sprintf("%s: not found in bench output", f.name))
			continue
		}
		if limit := f.ns * tol; m.ns > limit {
			out = append(out, fmt.Sprintf("%s: %.0f ns/op vs floor %.0f ns/op (limit %.0f at x%g tolerance)",
				f.name, m.ns, f.ns, limit, tol))
		}
		switch {
		case m.allocs < 0:
			out = append(out, fmt.Sprintf("%s: no allocs/op in bench output", f.name))
		case m.allocs > f.allocs:
			out = append(out, fmt.Sprintf("%s: %d allocs/op vs floor %d allocs/op (exact)",
				f.name, m.allocs, f.allocs))
		}
		switch limit := float64(f.bytes) * bytesTolerance; {
		case m.bytes < 0:
			out = append(out, fmt.Sprintf("%s: no B/op in bench output", f.name))
		case float64(m.bytes) > limit:
			out = append(out, fmt.Sprintf("%s: %d B/op vs floor %d B/op (limit %.0f at x%g tolerance)",
				f.name, m.bytes, f.bytes, limit, bytesTolerance))
		}
	}
	return out
}
