package cost

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"lancet/internal/hw"
	"lancet/internal/ir"
)

// refProfileKey is the op-profile memo key as six full fields, 48 bytes,
// the layout profileKey packs.
type refProfileKey struct {
	op       ir.OpKind
	grad     ir.GradKind
	flops    int64 // bucketed
	bytes    int64
	devices  int
	numParts int
}

// cacheShards stripes the reference memo like the mutex-guarded maps the
// op-profile table replaced.
const cacheShards = 32

// refShard is one stripe of the reference memo: a mutex-guarded map.
type refShard struct {
	mu sync.Mutex
	m  map[refProfileKey]float64
}

// refMemo is the reference op-profile memo: the 48-byte key, a shard
// picked by FNV-1a over its six fields, and the same counters. Its prices
// are the model's ground truth perturbed by the noise of the unpacked
// fields, so the packed memo must match it bit for bit.
type refMemo struct {
	m                      *Model
	shards                 [cacheShards]refShard
	hits, misses, profiled atomic.Int64
}

func (r *refMemo) predict(in *ir.Instr) float64 {
	key := refProfileKey{
		op: in.Op, grad: in.Grad,
		flops: bucket(int64(in.FLOPs)), bytes: bucket(in.Bytes),
		devices: in.CommDevices, numParts: in.NumParts,
	}
	h := fnvMix(int64(key.op), int64(key.grad), key.flops, key.bytes, int64(key.devices), int64(key.numParts))
	s := &r.shards[h%cacheShards]
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.m[key]; ok {
		r.hits.Add(1)
		return t
	}
	t := r.m.GroundComputeUs(in) * (1 + (float64(h%2001)/1000.0-1.0)*0.015)
	if s.m == nil {
		s.m = make(map[refProfileKey]float64)
	}
	s.m[key] = t
	r.misses.Add(1)
	r.profiled.Add(1)
	return t
}

// computeStream returns a seeded stream of compute instructions that
// repeats keys often enough to hit: every compute op under every grad
// kind, FLOPs and bytes one below, at and one above half-octave bucket
// edges, and device and partition counts from 0 to past 2^32.
func computeStream(seed int64, n int) []*ir.Instr {
	rng := rand.New(rand.NewSource(seed))
	var ops []ir.OpKind
	for op := ir.OpEmbedding; op <= ir.OpReconstruct; op++ {
		if !op.IsComm() {
			ops = append(ops, op)
		}
	}
	wide := []int64{0, 1, 2, 3, 8, 64, 1<<31 - 1, 1 << 31, 1<<32 - 1, 1 << 32, 1<<32 + 1, 1<<40 + 3}
	edge := func() int64 {
		if rng.Intn(8) == 0 {
			return int64(rng.Intn(3)) - 1 // 0 and both signs around it
		}
		return bucketThresholds[rng.Intn(len(bucketThresholds))] + int64(rng.Intn(3)) - 1
	}
	var pool []*ir.Instr
	for _, op := range ops {
		for grad := ir.GradNone; grad <= ir.GradDW; grad++ {
			pool = append(pool, &ir.Instr{Op: op, Grad: grad, FLOPs: 1e9, Bytes: 1 << 20})
		}
	}
	for range 3000 {
		pool = append(pool, &ir.Instr{
			Op:          ops[rng.Intn(len(ops))],
			Grad:        ir.GradKind(rng.Intn(3)),
			FLOPs:       float64(edge()),
			Bytes:       edge(),
			CommDevices: int(wide[rng.Intn(len(wide))]),
			NumParts:    int(wide[rng.Intn(len(wide))]),
			Kernels:     rng.Intn(3),
		})
	}
	stream := append([]*ir.Instr(nil), pool...)
	for len(stream) < n {
		stream = append(stream, pool[rng.Intn(len(pool))])
	}
	rng.Shuffle(len(stream), func(i, j int) { stream[i], stream[j] = stream[j], stream[i] })
	return stream
}

// The packed 24-byte key must separate and merge exactly the
// instructions the 48-byte key did: the same seeded stream priced through
// both memos gives bit-equal prices in stream order and equal counters.
func TestProfileKeyMatchesReference(t *testing.T) {
	for _, c := range []hw.Cluster{hw.V100Cluster(2), hw.A100Cluster(4)} {
		m := NewModel(c)
		ref := &refMemo{m: NewModel(c)}
		for i, in := range computeStream(1, 40000) {
			got, want := m.PredictInstr(in), ref.predict(in)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: instruction %d (%+v): price %v, reference %v", c.Name, i, *in, got, want)
			}
		}
		s := m.Stats()
		if s.Hits != ref.hits.Load() || s.Misses != ref.misses.Load() || s.ProfiledOps != ref.profiled.Load() {
			t.Errorf("%s: counters %+v, reference hits %d misses %d profiled %d",
				c.Name, s, ref.hits.Load(), ref.misses.Load(), ref.profiled.Load())
		}
		if s.Hits == 0 || s.Misses < 1000 {
			t.Errorf("%s: the stream must both hit and miss often: %+v", c.Name, s)
		}
	}
}

// Racing first predictions get one price per key: eight goroutines price
// one seeded stream in the same order on a fresh model whose table grows
// from empty several times meanwhile, so they race for every first
// insert. The odd goroutines price a twin of each instruction, two more
// kernels of the same work: the same key at another price, so a racing
// overwrite would show. Every goroutine must see one price per key, all
// goroutines the same one, and the counters must sum to the lookups with
// one profile per key.
func TestProfileTableRacesToOnePrice(t *testing.T) {
	m := NewModel(hw.V100Cluster(2))
	stream := computeStream(2, 20000)
	twins := make([]*ir.Instr, len(stream))
	keys, split := make(map[profileKey]bool), 0
	for i, in := range stream {
		tw := *in
		tw.Kernels += 2
		twins[i] = &tw
		keys[newProfileKey(in)] = true
		if m.GroundComputeUs(in) != m.GroundComputeUs(&tw) {
			split++
		}
	}
	if split < len(stream)/2 || len(keys) < 4<<profileTableBits {
		t.Fatalf("%d keys, %d of %d twins priced apart: the stream must grow the table and split keys", len(keys), split, len(stream))
	}
	const workers = 8
	seen := make([]map[profileKey]float64, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := range workers {
		ins := stream
		if w%2 == 1 {
			ins = twins
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			prices := make(map[profileKey]float64)
			<-start
			for _, in := range ins {
				k, p := newProfileKey(in), m.PredictInstr(in)
				if q, ok := prices[k]; ok && math.Float64bits(q) != math.Float64bits(p) {
					t.Errorf("goroutine %d: key %+v priced %v, then %v", w, k, q, p)
					return
				}
				prices[k] = p
			}
			seen[w] = prices
		}()
	}
	close(start)
	wg.Wait()
	for w := 1; w < workers; w++ {
		for k, p := range seen[w] {
			if q := seen[0][k]; math.Float64bits(q) != math.Float64bits(p) {
				t.Fatalf("key %+v: goroutine 0 saw %v, goroutine %d %v", k, q, w, p)
			}
		}
	}
	s := m.Stats()
	if s.Hits+s.Misses != workers*int64(len(stream)) || s.Misses != int64(len(keys)) || s.ProfiledOps != s.Misses {
		t.Errorf("counters %+v over %d lookups of %d keys", s, workers*len(stream), len(keys))
	}
}

// Every named operator and grad kind unpacks from the key as it went in,
// so measurementNoise reads the fields the 48-byte key held.
func TestProfileKeyUnpacks(t *testing.T) {
	for op := ir.OpEmbedding; op <= ir.OpReconstruct; op++ {
		for grad := ir.GradNone; grad <= ir.GradDW; grad++ {
			in := &ir.Instr{Op: op, Grad: grad, FLOPs: 1 << 62, Bytes: math.MaxInt64, CommDevices: 1 << 33, NumParts: 7}
			k := newProfileKey(in)
			if k.op() != op || k.grad() != grad || k.flops() != bucket(1<<62) || k.bytes() != bucket(math.MaxInt64) ||
				k.devices != 1<<33 || k.numParts != 7 {
				t.Errorf("%v/%v: key %+v unpacks to %v %v %d %d", op, grad, k, k.op(), k.grad(), k.flops(), k.bytes())
			}
		}
	}
}

// BenchmarkPredictInstrHit prices a cycle of a few hundred distinct
// compute shapes on a warm model: the op-profile memo's hit path, which
// must not allocate (ratcheted by perf_floor.txt).
func BenchmarkPredictInstrHit(b *testing.B) {
	m := newTestModel()
	var ins []*ir.Instr
	for op := ir.OpEmbedding; op <= ir.OpSGDUpdate; op++ {
		for f := 0; f < 24; f++ {
			ins = append(ins, &ir.Instr{Op: op, FLOPs: float64(int64(1) << (10 + f)), Bytes: 1 << 20, NumParts: f % 4})
		}
	}
	for _, in := range ins {
		m.PredictInstr(in)
	}
	if p := m.Stats().ProfiledOps; p != int64(len(ins)) {
		b.Fatalf("%d shapes profiled, want %d distinct", p, len(ins))
	}
	sink := 0.0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += m.PredictInstr(ins[i%len(ins)])
	}
	_ = sink
}
