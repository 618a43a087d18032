package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"lancet/internal/netsim"
)

// routingbody_test.go pins the /v1/routing request path (DESIGN.md §16):
// the one-pass decoder accepts only bodies that the reference decoder,
// decodeBody, decodes to the same update, and every reply equals what the
// indenting encoder writes for the same RoutingResponse.

// routingSeeds are bodies on both sides of the one-pass grammar, with
// whether parseRoutingUpdate accepts them. FuzzRoutingBody starts from them.
var routingSeeds = []struct {
	body string
	fast bool
}{
	{`{"plan":{"framework":"raf","baseline":"none"},"counts":[[1,2],[3,4]]}`, true},
	{`{"counts":[[1,2],[3,4]],"plan":{"framework":"raf","baseline":"none"}}`, true},
	{"{\n  \"plan\": {\"model\": \"gpt2-s\", \"gpus\": 16},\n\t\"counts\": [ [812, 64] ,\r\n [0, 7] ]\n}\n", true},
	{`{"plan":{},"counts":[[0,9223372036854775807]]}`, true},
	{`{"plan":{},"counts":[[1],[2,3]]}`, true},
	{`{"plan":{"model":"gpt}2\"\\"},"counts":[[1]]}`, true},
	{`{"plan":{"model":"]["},"counts":[[1]]}`, true},
	{`{"plan":{"routing":{"kind":"zipf","alpha":1.2},"options":{"max_partitions":4}},"counts":[[1]]}`, true},
	{`{"plan":{},"Counts":[[1]]}`, false},
	{`{"Plan":{},"counts":[[1]]}`, false},
	{`{"plan":{},"plan":{"seed":1},"counts":[[1]]}`, false},
	{`{"plan":{},"counts":[[1]],"counts":[[2]]}`, false},
	{`{"plan":{},"counts":[[1]]}`, true},
	{`{"plan":{},"counts":[[1e2]]}`, false},
	{`{"plan":{},"counts":[[1.0]]}`, false},
	{`{"plan":{},"counts":[[-0]]}`, false},
	{`{"plan":{},"counts":[[01]]}`, false},
	{`{"plan":{},"counts":[[9223372036854775808]]}`, false},
	{`{"plan":{},"counts":[[]]}`, false},
	{`{"plan":{},"counts":[]}`, false},
	{`{"plan":{},"counts":null}`, false},
	{`{"plan":{},"counts":[[null]]}`, false},
	{`{"plan":null,"counts":[[1]]}`, false},
	{`{"plan":{"skew":1.2},"counts":[[1]]}`, false},
	{`{"plan":{"seed":1,},"counts":[[1]]}`, false},
	{`{"plan":{"model":"gpt2},"counts":[[1]]}`, false},
	{`{"plan":{},"counts":[[1]]} trailing`, false},
	{`{"plan":{},"counts":[[1]]}{}`, false},
	{`{"plan":{},"counts":[[1]],"extra":1}`, false},
	{`{"plan":{}}`, false},
	{`{}`, false},
	{`null`, false},
	{``, false},
}

func TestRoutingFastGrammar(t *testing.T) {
	for _, s := range routingSeeds {
		if _, ok := parseRoutingUpdate([]byte(s.body)); ok != s.fast {
			t.Errorf("%q: one-pass decoder accepted = %t, want %t", s.body, ok, s.fast)
		}
	}
}

// routingRequest is a /v1/routing POST of body.
func routingRequest(body []byte) *http.Request {
	return httptest.NewRequest(http.MethodPost, "/v1/routing", bytes.NewReader(body))
}

// FuzzRoutingBody pins the handler's decode to the reference, decodeBody:
// on every body it returns the reference's update (reflect.DeepEqual) and
// error text. So a body the one-pass decoder accepts is one the reference
// accepts with an equal update, and a fallback's error reply is
// byte-identical to the reference's.
func FuzzRoutingBody(f *testing.F) {
	for _, s := range routingSeeds {
		f.Add([]byte(s.body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var want RoutingUpdate
		wantErr := decodeBody(httptest.NewRecorder(), routingRequest(data), &want)
		got, err := decodeRoutingBody(httptest.NewRecorder(), routingRequest(data))
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
			_, fast := parseRoutingUpdate(data)
			t.Fatalf("%q (one-pass decoder accepted it: %t): decoded %+v, %v; the reference %+v, %v",
				data, fast, got, err, want, wantErr)
		}
	})
}

// checkRoutingReply fails unless w, svc's answer to an update of plan, is a
// 200 whose bytes equal what writeJSON writes for the RoutingResponse of
// the drift session's published result and w's drift block. The caller
// keeps the published plan from changing while it checks.
func checkRoutingReply(t *testing.T, svc *Service, plan PlanRequest, w *httptest.ResponseRecorder) DriftInfo {
	t.Helper()
	if w.Code != http.StatusOK {
		t.Fatalf("status %d, body %s", w.Code, w.Body)
	}
	if got := w.Header().Get("Content-Type"); got != "application/json; charset=utf-8" {
		t.Errorf("Content-Type %q", got)
	}
	result, err := json.Marshal(driftSessionOf(t, svc, plan).plan.Load().res)
	if err != nil {
		t.Fatal(err)
	}
	info := decodeRouting(t, bytes.NewReader(w.Body.Bytes())).Drift
	ref := httptest.NewRecorder()
	writeJSON(ref, http.StatusOK, RoutingResponse{Result: result, Drift: info})
	if !bytes.Equal(w.Body.Bytes(), ref.Body.Bytes()) {
		t.Errorf("body differs from the reference encoder's\n got %s\nwant %s", w.Body, ref.Body)
	}
	return info
}

// driftSessionOf returns svc's drift session for plan.
func driftSessionOf(t *testing.T, svc *Service, plan PlanRequest) *driftSession {
	t.Helper()
	c, err := plan.canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	d, ok := svc.driftSessions.Get(c.planKey(c.framework))
	if !ok {
		t.Fatal("no drift session for the plan")
	}
	return d
}

// awaitReplans waits until svc has landed n re-plans and d's re-planning
// flag has cleared, so the next detected drift submits a re-plan.
func awaitReplans(t *testing.T, svc *Service, d *driftSession, n int64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for svc.Stats().Drift.Replans < n || d.replanning.Load() {
		if time.Now().After(deadline) {
			t.Fatalf("re-plan %d did not land", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRoutingBodyMatchesReferenceEncoder covers the first plan, stale
// serves while a re-plan is held open, a landed re-plan, a re-plan that is
// a plan-store hit, a plan restored from disk, and valid non-canonical
// spellings of an update, which get their canonical spelling's reply.
func TestRoutingBodyMatchesReferenceEncoder(t *testing.T) {
	uniCounts := netsim.UniformProfile(16).Counts()
	hotCounts := netsim.HotExpertProfile(16, 0.7).Counts()
	uni, hot := routingBody(t, uniCounts), routingBody(t, hotCounts)

	t.Run("re-plans", func(t *testing.T) {
		// A tiny half-life makes each snapshot the latest update's shape,
		// so traffic that returns to the first shape re-plans into the
		// first plan's stored result.
		svc := New(Config{DecayHalfLife: 0.01})
		gate := make(chan struct{})
		svc.replanGate = func() { <-gate }
		defer svc.Close()
		defer close(gate)
		h := svc.Handler()
		check := func(body string) DriftInfo {
			t.Helper()
			return checkRoutingReply(t, svc, driftPlan, postRouting(t, h, body))
		}

		if info := check(uni); info.PlanAge != 0 || info.Stale {
			t.Errorf("first plan: %+v, want a fresh plan", info)
		}
		d := driftSessionOf(t, svc, driftPlan)
		// Each re-plan waits on the gate, so a missed detection fails
		// before the test sends to it.
		if info := check(hot); !info.Detected || !info.Stale {
			t.Fatalf("drifted update: %+v, want a detected drift served stale", info)
		}
		if info := check(hot); !info.Stale || !info.Replanning {
			t.Errorf("update while the re-plan is held: %+v, want a stale serve", info)
		}
		gate <- struct{}{}
		awaitReplans(t, svc, d, 1)
		if info := check(hot); info.Stale || info.PlanAge != 2 {
			t.Errorf("update after the re-plan landed: %+v, want the fresh plan the second update triggered", info)
		}

		computed := svc.Computations()
		if info := check(uni); !info.Detected {
			t.Fatalf("return to the first shape: %+v, want a detected drift", info)
		}
		gate <- struct{}{}
		awaitReplans(t, svc, d, 2)
		if n := svc.Computations(); n != computed {
			t.Errorf("the re-plan back to a stored shape computed %d plans; want a plan-store hit", n-computed)
		}
		if info := check(uni); info.Stale {
			t.Errorf("update after the store-hit re-plan: %+v, want a fresh plan", info)
		}
	})

	t.Run("restored from disk", func(t *testing.T) {
		dir := t.TempDir()
		first := openService(t, dir)
		w := postRouting(t, first.Handler(), uni)
		checkRoutingReply(t, first, driftPlan, w)
		first.Close()
		restarted := openService(t, dir)
		defer restarted.Close()
		again := postRouting(t, restarted.Handler(), uni)
		checkRoutingReply(t, restarted, driftPlan, again)
		if n := restarted.Computations(); n != 0 {
			t.Errorf("restarted service computed %d plans; want a disk hit", n)
		}
		if !bytes.Equal(w.Body.Bytes(), again.Body.Bytes()) {
			t.Errorf("restored reply differs from the computed one\n got %s\nwant %s", again.Body, w.Body)
		}
	})

	t.Run("non-canonical spellings", func(t *testing.T) {
		planJSON, err := json.Marshal(driftPlan)
		if err != nil {
			t.Fatal(err)
		}
		// readmePlan is README's curl example, pretty-printed as there.
		readmePlan := PlanRequest{Model: "gpt2-s", Cluster: "V100", GPUs: 16, Framework: "lancet", Baseline: BaselineNone}
		const readmePlanJSON = `{"model": "gpt2-s", "cluster": "V100", "gpus": 16,
           "framework": "lancet", "baseline": "none"}`
		spellings := []struct {
			name string
			plan PlanRequest
			body func(counts [][]int64) string
			fast bool
		}{
			{"reversed keys", driftPlan, func(counts [][]int64) string {
				return fmt.Sprintf(`{"counts":%s,"plan":%s}`, mustJSON(t, counts), planJSON)
			}, true},
			{"Counts", driftPlan, func(counts [][]int64) string {
				return fmt.Sprintf(`{"plan":%s,"Counts":%s}`, planJSON, mustJSON(t, counts))
			}, false},
			{"README", readmePlan, func(counts [][]int64) string {
				rows := make([]string, len(counts))
				for i, row := range counts {
					rows[i] = strings.Join(strings.Fields(fmt.Sprint(row)), ", ")
				}
				return "{\n  \"plan\": " + readmePlanJSON + ",\n  \"counts\": [" + strings.Join(rows, ", ") + "]\n}\n"
			}, true},
		}
		for _, sp := range spellings {
			t.Run(sp.name, func(t *testing.T) {
				canon, other := New(Config{DriftThreshold: -1}), New(Config{DriftThreshold: -1})
				for _, counts := range [][][]int64{uniCounts, hotCounts} {
					body := sp.body(counts)
					if _, ok := parseRoutingUpdate([]byte(body)); ok != sp.fast {
						t.Errorf("one-pass decoder accepted = %t, want %t", ok, sp.fast)
					}
					want, got := postRouting(t, canon.Handler(), mustJSON(t, RoutingUpdate{Plan: sp.plan, Counts: counts})), postRouting(t, other.Handler(), body)
					checkRoutingReply(t, other, sp.plan, got)
					for _, h := range []string{"Content-Type", "X-Lancet-Plan-Age", "X-Lancet-Plan-Stale"} {
						if got.Header().Get(h) != want.Header().Get(h) {
							t.Errorf("%s %q, canonical spelling's %q", h, got.Header().Get(h), want.Header().Get(h))
						}
					}
					if got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
						t.Errorf("status %d, body\n%s\ncanonical spelling's status %d, body\n%s", got.Code, got.Body, want.Code, want.Body)
					}
				}
			})
		}
	})
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// BenchmarkServiceRoutingUpdate measures a stale /v1/routing update on a
// warm drift session: drift-replan's job shape (GPT2-S on 32 V100s) with
// Zipf 1.2 counts against a plan built for uniform traffic, and
// re-planning disabled, so each update is decode, ingest, drift check and
// reply. perf_floor.txt's exact allocs/op floor catches a return to the
// reflective decode of the counts or to re-encoding the served result.
func BenchmarkServiceRoutingUpdate(b *testing.B) {
	h := New(Config{DriftThreshold: -1}).Handler()
	plan := PlanRequest{GPUs: 32, Baseline: BaselineNone}
	body := func(p *netsim.RoutingProfile) []byte {
		blob, err := json.Marshal(RoutingUpdate{Plan: plan, Counts: p.Counts()})
		if err != nil {
			b.Fatal(err)
		}
		return blob
	}
	serve := func(body []byte, stale string) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, routingRequest(body))
		if w.Code != http.StatusOK || w.Header().Get("X-Lancet-Plan-Stale") != stale {
			b.Fatalf("status %d, stale %q, want %s: %s", w.Code, w.Header().Get("X-Lancet-Plan-Stale"), stale, w.Body)
		}
	}
	serve(body(netsim.UniformProfile(32)), "false")
	zipf := body(netsim.ZipfProfile(32, 1.2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve(zipf, "true")
	}
}
