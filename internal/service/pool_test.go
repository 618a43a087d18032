package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// planColdRoutings and planColdRequests spell planbench's plan-cold mix:
// three models on five fleets under three routings, 45 request shapes over
// 15 model × fleet pairs.
var planColdRoutings = []*RoutingSpec{
	nil,
	{Kind: RoutingZipf, Alpha: 1.2},
	{Kind: RoutingHot, HotShare: 0.3},
}

func planColdRequests() []PlanRequest {
	fleets := []PlanRequest{
		{Cluster: "V100", GPUs: 16},
		{Cluster: "A100", GPUs: 32},
		{Cluster: "V100", GPUs: 64},
		{Classes: []ClassSpec{{GPU: "A100", Nodes: 2}, {GPU: "V100", Nodes: 2}}},
		{Cluster: "V100", GPUs: 32, Topology: &TopologySpec{NodesPerRack: 2, Oversub: 4}},
	}
	var reqs []PlanRequest
	for _, rt := range planColdRoutings {
		for _, model := range []string{"gpt2-s", "gpt2-l", "vit-s"} {
			for _, f := range fleets {
				f.Model, f.Routing, f.Baseline = model, rt, BaselineNone
				reqs = append(reqs, f)
			}
		}
	}
	return reqs
}

// TestPlanColdShapesPoolByModelAndCluster sends the 45 plan-cold request
// shapes through one service. Routing is not part of the session key, so
// the pool builds exactly one session per model × fleet pair, and every
// routing plans on a view of it (DESIGN.md §9). Each served result must
// equal service.Compute on a fresh session of its own.
func TestPlanColdShapesPoolByModelAndCluster(t *testing.T) {
	svc := New(Config{})
	h := svc.Handler()
	for _, req := range planColdRequests() {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		w := postPlan(t, h, string(body))
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d, body %s", body, w.Code, w.Body)
		}
		var resp struct {
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		c, err := req.canonicalize()
		if err != nil {
			t.Fatal(err)
		}
		sess, err := buildSession(c)
		if err != nil {
			t.Fatal(err)
		}
		sess.WorkloadSkew, sess.WorkloadHotExpert = c.routing.workload()
		fresh, err := Compute(sess, c.framework, c.seed, c.opts.toLancet())
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(&fresh)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := json.Compact(&got, resp.Result); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: pooled result\n%s\nwant (fresh session)\n%s", body, got.Bytes(), want)
		}
	}
	st := svc.Stats().SessionStore
	if st.Misses != 15 || st.Evictions != 0 {
		t.Errorf("session pool: %d misses, %d evictions; want 15 sessions for 15 model × fleet pairs, no evictions", st.Misses, st.Evictions)
	}
}

// BenchmarkServicePlanMiss measures the service's plan-store miss path on a
// pooled session: one /v1/plan request for GPT2-S on 16×V100, rotating
// uniform, Zipf 1.2 and hot 0.3 routing, each with a fresh seed and no
// baseline. The pool holds one session, so a pool keyed on routing would
// rebuild the graph and the cost model on every request; perf_floor.txt's
// exact allocs/op floor catches that.
func BenchmarkServicePlanMiss(b *testing.B) {
	h := New(Config{SessionCacheSize: 1}).Handler()
	serve := func(seed int64, rt *RoutingSpec) {
		body, err := json.Marshal(PlanRequest{Baseline: BaselineNone, Seed: &seed, Routing: rt})
		if err != nil {
			b.Fatal(err)
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body)))
		if w.Code != http.StatusOK || w.Header().Get("X-Lancet-Cache") != "miss" {
			b.Fatalf("status %d, cache %q: %s", w.Code, w.Header().Get("X-Lancet-Cache"), w.Body)
		}
	}
	// Warm the pooled session, its skew tables and the routing proxies, as
	// in a long-lived server; the measured seeds are all new plan keys.
	for i, rt := range planColdRoutings {
		serve(-1-int64(i), rt)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve(int64(i), planColdRoutings[i%len(planColdRoutings)])
	}
}
