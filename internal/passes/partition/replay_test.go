package partition

import (
	"math"
	"strings"
	"testing"

	"lancet/internal/cost"
)

// TestReplaySelfIsIdentity pins the replay mode underneath node-loss
// what-ifs (DESIGN.md §17): replaying a run's own chosen ranges on the same
// graph reproduces the same ranges, partition counts and forward time, while
// pricing each window exactly once instead of sweeping.
func TestReplaySelfIsIdentity(t *testing.T) {
	b, cm := buildFixture(t)
	cold, err := Run(b.Graph, cm, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cold.Ranges) == 0 {
		t.Fatal("fixture chose no ranges; replay test needs a non-trivial plan")
	}
	rep, err := Replay(b.Graph, cm, Options{}, cold.Ranges)
	if err != nil {
		t.Fatal(err)
	}
	if a, bb := rangeSummary(cold), rangeSummary(rep); !equalRanges(a, bb) {
		t.Errorf("replayed ranges %v differ from cold %v", bb, a)
	}
	if diff := math.Abs(cold.ForwardUs - rep.ForwardUs); diff > 1e-6*cold.ForwardUs {
		t.Errorf("replayed forward %v us differs from cold %v us", rep.ForwardUs, cold.ForwardUs)
	}
	if rep.Evaluations >= cold.Evaluations {
		t.Errorf("replay priced %d windows, cold swept %d evaluations — replay must not sweep",
			rep.Evaluations, cold.Evaluations)
	}
	if rep.Evaluations > len(cold.Ranges) {
		t.Errorf("replay spent %d evaluations for %d windows, want one pricing per window",
			rep.Evaluations, len(cold.Ranges))
	}
}

// TestReplayEmptyIsSerial pins the degenerate form: no fixed ranges means a
// serial forward pass, no DP, no pricings.
func TestReplayEmptyIsSerial(t *testing.T) {
	b, cm := buildFixture(t)
	rep, err := Replay(b.Graph, cm, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Ranges) != 0 || rep.Evaluations != 0 {
		t.Errorf("empty replay chose %d ranges with %d evaluations, want none", len(rep.Ranges), rep.Evaluations)
	}
	if rep.ForwardUs != rep.SerialForwardUs {
		t.Errorf("empty replay forward %v us differs from serial %v us", rep.ForwardUs, rep.SerialForwardUs)
	}
}

// TestReplayRejectsBadRanges covers the fixed-range validation: negative
// starts, inverted or overlapping windows, and windows past the forward
// prefix are caller errors, not silently skipped work.
func TestReplayRejectsBadRanges(t *testing.T) {
	b, cm := buildFixture(t)
	cases := []struct {
		name    string
		fixed   []Range
		wantErr string
	}{
		{"negative start", []Range{{Start: -1, End: 3, K: 2}}, "invalid"},
		{"inverted", []Range{{Start: 5, End: 2, K: 2}}, "invalid"},
		{"overlapping", []Range{{Start: 0, End: 5, K: 2}, {Start: 3, End: 8, K: 2}}, "overlaps"},
		{"past forward prefix", []Range{{Start: 0, End: 1 << 20, K: 2}}, "forward prefix"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Replay(b.Graph, cm, Options{}, tc.fixed)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("Replay(%v) error = %v, want mention of %q", tc.fixed, err, tc.wantErr)
			}
		})
	}
}

// TestReplayClampsOversizedK pins the clamp: a fixed range asking for more
// partitions than rho or the axes admit replays at the admissible count
// instead of erroring — the stale plan may have been chosen under a larger
// rho than the degraded fleet allows.
func TestReplayClampsOversizedK(t *testing.T) {
	b, cm := buildFixture(t)
	cold, err := Run(b.Graph, cm, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fixed := append([]Range(nil), cold.Ranges...)
	for i := range fixed {
		fixed[i].K = 64
	}
	rep, err := Replay(b.Graph, cm, Options{MaxPartitions: 4}, fixed)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Ranges {
		if r.K > 4 {
			t.Errorf("range [%d, %d] replayed at k=%d, want clamped to 4", r.Start, r.End, r.K)
		}
	}
}

// TestReplayPricesRunRanges cross-checks the DP's resumed simulations
// against from-scratch ones: Replay prices each of Run's own ranges as a
// new window, and must price it bit-equal to Run, with the forward time
// equal up to the order of its float additions. It runs GPT2-S, GPT2-L and
// ViT-S under the defaults with a partial-batch gate, γ 1000 with ι 7, a
// batch-prioritized gate, and ρ 4.
func TestReplayPricesRunRanges(t *testing.T) {
	grid := []Options{
		{GatePartialBatch: true},
		{GatePartialBatch: true, GroupUs: 1000, MaxRangeGroups: 7},
		{GatePartialBatch: false},
		{GatePartialBatch: true, MaxPartitions: 4},
	}
	for name, b := range refModels(t) {
		cm := cost.NewModel(b.Cluster)
		for _, opts := range grid {
			run, err := Run(b.Graph, cm, opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(run.Ranges) == 0 {
				t.Fatalf("%s %+v: the DP chose no ranges; the check needs some", name, opts)
			}
			rep, err := Replay(b.Graph, cm, opts, run.Ranges)
			if err != nil {
				t.Fatal(err)
			}
			if a, bb := rangeSummary(run), rangeSummary(rep); !equalRanges(a, bb) {
				t.Fatalf("%s %+v: replayed ranges %v, run %v", name, opts, bb, a)
			}
			for i, r := range run.Ranges {
				if got := rep.Ranges[i].PredictedUs; math.Float64bits(got) != math.Float64bits(r.PredictedUs) {
					t.Errorf("%s %+v: range [%d, %d] k=%d replays at %v us, run priced %v us",
						name, opts, r.Start, r.End, r.K, got, r.PredictedUs)
				}
			}
			if gap := math.Abs(rep.ForwardUs-run.ForwardUs) / run.ForwardUs; gap > 1e-12 {
				t.Errorf("%s %+v: replayed forward %v us, run %v us (relative gap %.3g)",
					name, opts, rep.ForwardUs, run.ForwardUs, gap)
			}
		}
	}
}
