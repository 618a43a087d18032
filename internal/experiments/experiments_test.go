package experiments

import (
	"slices"
	"strconv"
	"strings"
	"testing"
)

func cell(t *Table, row, col int) string { return t.Rows[row][col] }

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.Trim(s, "*x")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q not numeric: %v", s, err)
	}
	return v
}

func TestFig2Shapes(t *testing.T) {
	tb, err := Fig2Breakdown()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(tb.Rows))
	}
	for i, row := range tb.Rows {
		a2a := parseF(t, row[2])
		experts := parseF(t, row[3])
		orig := parseF(t, row[5])
		curr := parseF(t, row[6])
		opt := parseF(t, row[8])
		// Paper's motivating shape: a2a time well above expert time.
		if a2a <= 2*experts {
			t.Errorf("row %d: a2a %.1f not >> experts %.1f", i, a2a, experts)
		}
		if !(opt < curr && curr < orig) {
			t.Errorf("row %d: bound ordering violated: orig %.1f curr %.1f opt %.1f", i, orig, curr, opt)
		}
		// Current methods' ceiling leaves most of the gap on the table.
		if (orig-curr)/(orig-opt) > 0.6 {
			t.Errorf("row %d: expert-only overlap closes too much of the ideal gap", i)
		}
	}
}

func TestFig6UShapeAndDP(t *testing.T) {
	tb, err := Fig6PartitionRange()
	if err != nil {
		t.Fatal(err)
	}
	// Per config: rows are Orig, 0, 3, ..., 18, DP.
	perCfg := len(tb.Rows) / 2
	for c := 0; c < 2; c++ {
		rows := tb.Rows[c*perCfg : (c+1)*perCfg]
		if rows[0][1] != "Orig (no partition)" || rows[len(rows)-1][1] != "DP solution" {
			t.Fatalf("config %d: unexpected row layout", c)
		}
		var sweep []float64
		for _, r := range rows[1 : len(rows)-1] {
			if r[2] == "n/a" {
				continue
			}
			sweep = append(sweep, parseF(t, r[2]))
		}
		if len(sweep) < 4 {
			t.Fatalf("config %d: too few sweep points", c)
		}
		minSweep, last := sweep[0], sweep[len(sweep)-1]
		for _, v := range sweep {
			if v < minSweep {
				minSweep = v
			}
		}
		if minSweep >= 1.0 {
			t.Errorf("config %d: partitioning never beat Orig (min %.3f)", c, minSweep)
		}
		// U-shape: the widest range must be worse than the best point.
		if last <= minSweep+1e-9 {
			t.Errorf("config %d: no upturn at wide ranges (last %.3f, min %.3f)", c, last, minSweep)
		}
		dp := parseF(t, rows[len(rows)-1][2])
		if dp > minSweep+0.02 {
			t.Errorf("config %d: DP solution %.3f worse than sweep minimum %.3f", c, dp, minSweep)
		}
	}
}

func TestFig11LancetWinsEverywhere(t *testing.T) {
	tb, err := Fig11ThroughputSwitch([]int{16})
	if err != nil {
		t.Fatal(err)
	}
	// Header: Cluster, Model, GPUs, DeepSpeed, RAF, Tutel, Lancet.
	for i, row := range tb.Rows {
		lan := parseF(t, row[6])
		for col := 3; col <= 5; col++ {
			if row[col] == "OOM" {
				continue
			}
			if base := parseF(t, row[col]); lan >= base {
				t.Errorf("row %d: Lancet %.1f not faster than %s %.1f", i, lan, tb.Header[col], base)
			}
		}
		tut := row[5]
		if tut == "OOM" {
			continue
		}
		speedup := parseF(t, tut) / lan
		if speedup < 1.02 || speedup > 1.8 {
			t.Errorf("row %d: speedup over Tutel %.2fx outside plausible band", i, speedup)
		}
	}
}

func TestFig11DeepSpeedOOMCells(t *testing.T) {
	tb, err := Fig11ThroughputSwitch([]int{16})
	if err != nil {
		t.Fatal(err)
	}
	oomSeen := false
	for _, row := range tb.Rows {
		if row[0] == "A100" && strings.Contains(row[1], "GPT2-S") && row[3] == "OOM" {
			oomSeen = true
		}
		if row[0] == "V100" && row[3] == "OOM" {
			t.Error("DeepSpeed should not OOM on V100")
		}
	}
	if !oomSeen {
		t.Error("expected the paper's DeepSpeed OOM on GPT2-S/A100")
	}
}

func TestFig12BPRStillGains(t *testing.T) {
	tb, err := Fig12ThroughputBPR([]int{16})
	if err != nil {
		t.Fatal(err)
	}
	// Header: Cluster, Model, GPUs, RAF, Tutel, Lancet.
	for i, row := range tb.Rows {
		raf, lan := parseF(t, row[3]), parseF(t, row[5])
		if lan >= raf {
			t.Errorf("row %d: Lancet with BPR (%.1f) not faster than RAF (%.1f)", i, lan, raf)
		}
	}
}

func TestFig13Accounting(t *testing.T) {
	tb, err := Fig13Decomposition()
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range tb.Rows {
		if row[3] == "OOM" {
			continue
		}
		comm, overlap, comp := parseF(t, row[3]), parseF(t, row[4]), parseF(t, row[5])
		total := parseF(t, row[6])
		// Wall clock can exceed busy time (stream idle) but never the
		// serialized sum, and never undercut the critical stream.
		if total > comm+overlap+comp+overlap+1 {
			t.Errorf("row %d: total %.1f exceeds serialized busy time", i, total)
		}
		if total+1 < comm+overlap {
			t.Errorf("row %d: total %.1f below comm busy %.1f", i, total, comm+overlap)
		}
	}
	// Lancet rows must show more overlap than the matching RAF rows.
	byKey := map[string]map[string][]string{}
	for _, row := range tb.Rows {
		key := row[0] + "|" + row[1]
		if byKey[key] == nil {
			byKey[key] = map[string][]string{}
		}
		byKey[key][row[2]] = row
	}
	for key, rows := range byKey {
		lan, raf := rows["Lancet"], rows["RAF"]
		if lan == nil || raf == nil || lan[3] == "OOM" || raf[3] == "OOM" {
			continue
		}
		if parseF(t, lan[4]) <= parseF(t, raf[4]) {
			t.Errorf("%s: Lancet overlap %.1f not above RAF %.1f", key, parseF(t, lan[4]), parseF(t, raf[4]))
		}
		if parseF(t, lan[3]) >= parseF(t, raf[3]) {
			t.Errorf("%s: Lancet non-overlapped comm not reduced", key)
		}
	}
}

func TestFig14SmallError(t *testing.T) {
	tb, err := Fig14CostModel([]int{16})
	if err != nil {
		t.Fatal(err)
	}
	avg := parseF(t, tb.Rows[len(tb.Rows)-1][6])
	// Paper: 3.83% average error. Demand the same order of magnitude.
	if avg > 8 {
		t.Errorf("average cost-model error %.2f%% too large", avg)
	}
	if avg == 0 {
		t.Error("suspiciously perfect predictions — jitter/profile noise missing")
	}
}

func TestFig15EffortTracksDepthNotGPUs(t *testing.T) {
	tb, err := Fig15OptimizationTime([]int{16, 32})
	if err != nil {
		t.Fatal(err)
	}
	evals := map[string]float64{}
	for _, row := range tb.Rows {
		evals[row[1]+"/"+row[2]+"/"+row[0]] = parseF(t, row[4])
	}
	if evals["GPT2-L-MoE/16/V100"] <= evals["GPT2-S-MoE/16/V100"] {
		t.Error("optimization effort should grow with layer count")
	}
	// Effort roughly flat across GPU counts for the same model.
	s16, s32 := evals["GPT2-S-MoE/16/V100"], evals["GPT2-S-MoE/32/V100"]
	if s32 > 2*s16 {
		t.Errorf("optimization effort scales with GPUs (%v -> %v), should not", s16, s32)
	}
}

func TestFig16Ordering(t *testing.T) {
	tb, err := Fig16Ablation()
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range tb.Rows {
		noDW := parseF(t, row[3])
		noPipe := parseF(t, row[4])
		full := parseF(t, row[5])
		if full < noDW || full < noPipe {
			t.Errorf("row %d: full %.2f below an ablation (%0.2f, %0.2f)", i, full, noDW, noPipe)
		}
		if noDW <= 1.0 || noPipe <= 1.0 {
			t.Errorf("row %d: single optimizations should still beat baseline", i)
		}
	}
}

func TestEquivalenceTable(t *testing.T) {
	tb, err := EquivalenceCheck()
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range tb.Rows {
		safe := row[1] == "true"
		identical := row[5] == "true"
		if safe && !identical {
			t.Errorf("row %d: %s claims partial-batch safety but outputs differ", i, row[0])
		}
		if row[0] == "batch_prioritized" && identical {
			t.Errorf("row %d: BPR should not survive batch splitting", i)
		}
	}
}

func TestPaddingSavingsTable(t *testing.T) {
	tb, err := PaddingSavings()
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range tb.Rows {
		share := parseF(t, row[3])
		if share <= 0 || share > 1 {
			t.Errorf("row %d: payload share %v out of (0,1]", i, share)
		}
	}
}

func TestRunAndNames(t *testing.T) {
	if _, err := Run("fig99", true); err == nil {
		t.Error("unknown experiment must error")
	}
	tb, err := Run("equiv", true)
	if err != nil || tb.ID != "equiv" {
		t.Errorf("Run(equiv) = %v, %v", tb, err)
	}
}

func TestWriteMarkdown(t *testing.T) {
	dir := t.TempDir()
	tb := &Table{ID: "demo", Title: "Demo", Header: []string{"a", "b"}}
	tb.AddRow("1", "2")
	if err := WriteMarkdown(dir, []*Table{tb}); err != nil {
		t.Fatal(err)
	}
	md := tb.Markdown()
	for _, want := range []string{"## demo", "| a | b |", "| 1 | 2 |"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q", want)
		}
	}
}

func TestSkewPlanningAwareWins(t *testing.T)       { checkAwareBeatsBlind(t, "skew_planning") }
func TestTopologyPlanningAwareWins(t *testing.T)   { checkAwareBeatsBlind(t, "topology_planning") }
func TestHeteroPlanningAwareWins(t *testing.T)     { checkAwareBeatsBlind(t, "hetero_planning") }
func TestContentionPlanningAwareWins(t *testing.T) { checkAwareBeatsBlind(t, "multi_job_contention") }

// checkAwareBeatsBlind is the acceptance bar of every blind-vs-aware
// experiment (DESIGN.md §8): on each row the plan priced against reality
// beats the plan priced against the blind view, replayed on the same
// fleet and traffic. The pipeline column shows both plans' counts, and the
// hetero table attributes a positive compute lag to its V100 slice.
func checkAwareBeatsBlind(t *testing.T, name string) {
	t.Helper()
	e, ok := Lookup(name)
	if !ok {
		t.Fatalf("%s is not registered", name)
	}
	tab, err := e.Run(Params{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 {
		t.Fatal("no rows")
	}
	pipes := slices.Index(tab.Header, "Pipelines (blind/aware)")
	if pipes < 0 {
		t.Fatalf("no pipeline column in %v", tab.Header)
	}
	straggler := slices.Index(tab.Header, "V100 straggler (ms)")
	if (straggler >= 0) != (name == "hetero_planning") {
		t.Errorf("V100 straggler column at %d in %v", straggler, tab.Header)
	}
	for _, row := range tab.Rows {
		blind, aware := parseF(t, row[1]), parseF(t, row[2])
		if aware >= blind {
			t.Errorf("%s: aware-planned %.1f ms should beat blind-planned %.1f ms", row[0], aware, blind)
		}
		if strings.Count(row[pipes], "/") != 1 {
			t.Errorf("%s: malformed pipeline column %q", row[0], row[pipes])
		}
		if straggler >= 0 {
			if lag := parseF(t, row[straggler]); lag <= 0 || lag >= aware {
				t.Errorf("%s: V100 straggler %.1f ms out of range", row[0], lag)
			}
		}
	}
}
