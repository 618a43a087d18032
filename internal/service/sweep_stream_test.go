package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// sweep_stream_test.go pins /v1/sweep's NDJSON streaming mode, its grid
// caps and its body validation, and that a sweep stores the same plans
// /v1/plan computes.

func postSweep(t *testing.T, h http.Handler, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// decodeStream parses an NDJSON sweep response into grid order, failing on
// duplicate or missing indexes.
func decodeStream(t *testing.T, body *bytes.Buffer, want int) []SweepItem {
	t.Helper()
	type streamItem struct {
		Index int `json:"index"`
		SweepItem
	}
	items := make([]SweepItem, want)
	seen := make([]bool, want)
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lines := 0
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var it streamItem
		if err := json.Unmarshal(sc.Bytes(), &it); err != nil {
			t.Fatalf("stream line %d is not JSON: %v\n%s", lines, err, sc.Bytes())
		}
		if it.Index < 0 || it.Index >= want {
			t.Fatalf("stream line carries index %d outside [0, %d)", it.Index, want)
		}
		if seen[it.Index] {
			t.Fatalf("index %d streamed twice", it.Index)
		}
		seen[it.Index] = true
		items[it.Index] = it.SweepItem
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines != want {
		t.Fatalf("stream carried %d lines, want %d", lines, want)
	}
	return items
}

func TestSweepStreamMatchesBufferedResults(t *testing.T) {
	grid := `"frameworks": ["raf", "deepspeed"], "gpus": [16, 12]`
	buffered := postSweep(t, New(Config{Parallel: 4}).Handler(), `{`+grid+`}`)
	if buffered.Code != http.StatusOK {
		t.Fatalf("buffered status = %d, body %s", buffered.Code, buffered.Body)
	}
	var bresp SweepResponse
	if err := json.NewDecoder(buffered.Body).Decode(&bresp); err != nil {
		t.Fatal(err)
	}

	streamed := postSweep(t, New(Config{Parallel: 4}).Handler(), `{`+grid+`, "stream": true}`)
	if streamed.Code != http.StatusOK {
		t.Fatalf("stream status = %d, body %s", streamed.Code, streamed.Body)
	}
	if ct := streamed.Header().Get("Content-Type"); !strings.Contains(ct, "application/x-ndjson") {
		t.Errorf("stream content type = %q, want NDJSON", ct)
	}
	if !streamed.Flushed {
		t.Error("stream never flushed; clients would buffer until EOF")
	}
	items := decodeStream(t, streamed.Body, bresp.Count)
	// Same grid, same outcomes: every point's result and error must match
	// the buffered response once re-ordered by index.
	for i := range items {
		want, _ := json.Marshal(bresp.Results[i])
		got, _ := json.Marshal(items[i])
		if !bytes.Equal(want, got) {
			t.Errorf("point %d: streamed %s, buffered %s", i, got, want)
		}
	}
}

// TestSweepStoresColdPlans pins that a sweep stores exactly what /v1/plan
// computes for the same point. On this grid, chaining warm-start hints
// through the points once stored different plans under the shared plan
// keys, so a later /v1/plan served a sweep's history instead of the DP's
// answer. warm_start is retired and must be rejected.
func TestSweepStoresColdPlans(t *testing.T) {
	const grid = `"models": ["gpt2-s"], "clusters": ["V100"], "gpus": [16, 32, 64],
		"gates": ["switch", "bpr"], "frameworks": ["lancet"],
		"options": {"max_partitions": 16, "group_us": 1000}`
	svc := New(Config{Parallel: 2})
	h := svc.Handler()
	if w := postSweep(t, h, `{`+grid+`, "warm_start": true}`); w.Code != http.StatusBadRequest {
		t.Errorf("warm_start sweep status = %d, want 400", w.Code)
	} else if e := decodeEnvelope(t, w); e.Err.Code != CodeBadRequest || !strings.Contains(e.Err.Message, `"warm_start"`) {
		t.Errorf("warm_start rejection = %+v, want bad_request naming the field", e.Err)
	}
	if w := postSweep(t, h, `{`+grid+`}`); w.Code != http.StatusOK {
		t.Fatalf("sweep status = %d, body %s", w.Code, w.Body)
	}
	if n := svc.Stats().DPEvaluations; n <= 0 {
		t.Errorf("dp_evaluations = %d after a lancet sweep, want > 0", n)
	}

	summary := func(w *httptest.ResponseRecorder) string {
		var resp PlanResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || resp.Result == nil {
			return w.Body.String()
		}
		return fmt.Sprintf("%.2f ms, %s", resp.Result.IterationMs, resp.Result.Notes)
	}
	fresh := New(Config{}).Handler()
	for _, gpus := range []int{16, 32, 64} {
		for _, gate := range []string{"switch", "bpr"} {
			body := fmt.Sprintf(`{"model": "gpt2-s", "cluster": "V100", "gpus": %d, "gate": %q,
				"framework": "lancet", "baseline": "none", "options": {"max_partitions": 16, "group_us": 1000}}`,
				gpus, gate)
			got, want := postPlan(t, h, body), postPlan(t, fresh, body)
			if got.Code != http.StatusOK || want.Code != http.StatusOK {
				t.Fatalf("%d GPUs %s: status %d after the sweep, %d fresh", gpus, gate, got.Code, want.Code)
			}
			if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
				t.Errorf("%d GPUs %s: after the sweep /v1/plan serves (%s) %s; a fresh service serves %s",
					gpus, gate, got.Header().Get("X-Lancet-Cache"), summary(got), summary(want))
			}
		}
	}
}

func TestSweepRejectsBadBodies(t *testing.T) {
	h := New(Config{}).Handler()
	cases := []struct{ name, body, wantInError string }{
		{"bad json", `{"frameworks": `, "bad request body"},
		{"unknown field", `{"framework": "raf"}`, `unknown field "framework"`},
		{"second value", `{"frameworks": ["raf"]} [1,2,3]`, "data after the JSON value"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := postSweep(t, h, tc.body)
			if w.Code != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400 (body %s)", w.Code, w.Body)
			}
			e := decodeEnvelope(t, w)
			if e.Err.Code != CodeBadRequest || !strings.Contains(e.Err.Message, tc.wantInError) {
				t.Errorf("error = %+v, want %s mentioning %q", e.Err, CodeBadRequest, tc.wantInError)
			}
		})
	}
}

func TestSweepCapErrorPointsAtStreaming(t *testing.T) {
	// 1080 points: over the buffered cap, well under the streaming backstop.
	body := `{"models": ["gpt2-s", "gpt2-l", "vit-s"], "clusters": ["V100", "A100"],
		"gpus": [8, 16, 24, 32, 48, 64],
		"gates": ["switch", "top2", "bpr", "random", "hash", "ec"],
		"frameworks": ["deepspeed", "raf", "tutel", "fastermoe", "lancet"]}`
	w := postSweep(t, New(Config{}).Handler(), body)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", w.Code)
	}
	msg := decodeError(t, w)
	if !strings.Contains(msg, `"stream": true`) {
		t.Errorf("cap error %q should point at the streaming alternative", msg)
	}
}

// oversizedGrid builds a sweep body whose cross product exceeds the buffered
// cap using instantly rejected grid points (odd multi-node GPU counts are
// invalid on every cluster), so the streaming path over it costs
// microseconds per point.
func oversizedGrid(stream bool) string {
	gpus := make([]string, maxSweepPoints+1)
	for i := range gpus {
		gpus[i] = fmt.Sprint(2*i + 9)
	}
	return fmt.Sprintf(`{"frameworks": ["raf"], "gpus": [%s], "stream": %v}`,
		strings.Join(gpus, ", "), stream)
}

func TestSweepStreamLiftsBufferedCap(t *testing.T) {
	// The same grid: rejected buffered, streamed in full.
	w := postSweep(t, New(Config{Parallel: 4}).Handler(), oversizedGrid(false))
	if w.Code != http.StatusBadRequest {
		t.Fatalf("buffered status = %d, want 400", w.Code)
	}
	w = postSweep(t, New(Config{Parallel: 4}).Handler(), oversizedGrid(true))
	if w.Code != http.StatusOK {
		t.Fatalf("stream status = %d, body %.200s", w.Code, w.Body)
	}
	items := decodeStream(t, w.Body, maxSweepPoints+1)
	for i, it := range items {
		if it.Err == "" {
			t.Fatalf("point %d (odd GPU count) should carry an error", i)
		}
	}
}
