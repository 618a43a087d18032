package lancet_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"lancet"
	"lancet/internal/ir"
	"lancet/internal/netsim"
)

// goldenShape is one model × fleet × routing shape of the plan-cold mix
// (planbench/cold.go): three models on five fleets under three routings.
type goldenShape struct {
	model, fleet, routing string
}

// goldenFleets builds the plan-cold fleets: 16×V100, 32×A100, 64×V100, a
// mixed 2×A100 + 2×V100-node fleet and 32×V100 at two nodes per rack
// behind a 4:1 oversubscribed spine.
var goldenFleets = map[string]func() (lancet.Cluster, error){
	"v100x16": func() (lancet.Cluster, error) { return lancet.NewCluster("V100", 16) },
	"a100x32": func() (lancet.Cluster, error) { return lancet.NewCluster("A100", 32) },
	"v100x64": func() (lancet.Cluster, error) { return lancet.NewCluster("V100", 64) },
	"2a100+2v100": func() (lancet.Cluster, error) {
		a, err := lancet.ClassForGPU("A100", 2)
		if err != nil {
			return lancet.Cluster{}, err
		}
		v, err := lancet.ClassForGPU("V100", 2)
		if err != nil {
			return lancet.Cluster{}, err
		}
		return lancet.NewHeteroCluster(a, v)
	},
	"v100x32-oversub4": func() (lancet.Cluster, error) {
		cl, err := lancet.NewCluster("V100", 32)
		if err != nil {
			return lancet.Cluster{}, err
		}
		return cl.WithTopology(lancet.Topology{NodesPerRack: 2, Oversubscription: 4}.DefaultRacks())
	},
}

func (s goldenShape) session() (*lancet.Session, error) {
	cfg, err := lancet.ParseModel(s.model, 0)
	if err != nil {
		return nil, err
	}
	cl, err := goldenFleets[s.fleet]()
	if err != nil {
		return nil, err
	}
	sess, err := lancet.NewSession(cfg, cl)
	if err != nil {
		return nil, err
	}
	switch s.routing {
	case "zipf1.2":
		sess.WorkloadSkew = 1.2
	case "hot0.3":
		sess.WorkloadHotExpert = 0.3
	}
	return sess, nil
}

// dumpGraph writes a canonical text form of g: every tensor's ID, name,
// shape, dtype and kind, then every instruction's position and each of
// its fields by name, operands included. Floats print in their shortest
// exact form, so equal dumps mean equal graphs. The position prints where
// ir.Instr once kept an ID field equal to it.
func dumpGraph(w hash.Hash, g *ir.Graph) {
	fmt.Fprintf(w, "tensors %d\n", len(g.Tensors))
	for _, t := range g.Tensors {
		fmt.Fprintf(w, "%d %q %v %d %d\n", t.ID, t.Name, []int(t.Shape), t.DType, t.Kind)
	}
	fmt.Fprintf(w, "instrs %d\n", len(g.Instrs))
	for i, in := range g.Instrs {
		fmt.Fprintf(w, "{ID:%d Name:%s Op:%v Grad:%v Phase:%v Layer:%d Ins:%v Outs:%v FLOPs:%v Bytes:%d CommDevices:%d Kernels:%d PartIdx:%d NumParts:%d}\n",
			i, in.Name, in.Op, in.Grad, in.Phase, in.Layer, in.Ins, in.Outs, in.FLOPs, in.Bytes, in.CommDevices, in.Kernels, in.PartIdx, in.NumParts)
	}
}

func graphHash(g *ir.Graph) string {
	h := sha256.New()
	dumpGraph(h, g)
	return hex.EncodeToString(h.Sum(nil))
}

// TestRewrittenGraphsGolden pins the graphs the three rewriting planners
// produce — Lancet (dW reorder, then the partition pipelines), Tutel (the
// degree search's winner) and FasterMoE (payload edits on a copy, then a
// degree-2 rewrite) — over the 45 plan-cold shapes, by the SHA-256 of a
// canonical dump per shape. It also requires each session's own graph to
// dump identically after planning, so a rewrite that writes through a
// tensor or operand slice it shares with its input fails here.
func TestRewrittenGraphsGolden(t *testing.T) {
	golden := map[goldenShape]string{
		{"gpt2-s", "v100x16", "uniform"}:          "7f3f6475132d0b877585a12ceaeca922563f745c33b8fd3ea083302dd43ebab0",
		{"gpt2-s", "v100x16", "zipf1.2"}:          "7f3f6475132d0b877585a12ceaeca922563f745c33b8fd3ea083302dd43ebab0",
		{"gpt2-s", "v100x16", "hot0.3"}:           "f9e536a77a7439c8040f24786edd159636896f0d013fb1076f72f8f22e3e8075",
		{"gpt2-s", "a100x32", "uniform"}:          "3452566bc5aa76a7a08bf1b438e63f41e58823de56c25eae326e69ac33b11695",
		{"gpt2-s", "a100x32", "zipf1.2"}:          "d466fdb6475336c3e001448cca29d229b265e3ee09bbd8f00248181468685770",
		{"gpt2-s", "a100x32", "hot0.3"}:           "fe6c2352f002167a02c236b1b606f3e4efcbf03752190a558034e5df4472c35a",
		{"gpt2-s", "v100x64", "uniform"}:          "db585a05a963de3271712c4ebf0ec7a6cdf8c95c102f2ced51b9e3ab4140f68e",
		{"gpt2-s", "v100x64", "zipf1.2"}:          "cf929ddea660e8adb5ed86fa0019371330b7126e5299be310589b025f9255092",
		{"gpt2-s", "v100x64", "hot0.3"}:           "a2ecd510588fba1875b28356c3bf115a5b726debce23330a101c24d86055fb4c",
		{"gpt2-s", "2a100+2v100", "uniform"}:      "5984a82421ec8987045ecc4520553ce147747aa3652e0df9eed11a0ee5128451",
		{"gpt2-s", "2a100+2v100", "zipf1.2"}:      "ba21acece670481e19b5732e4f5851cf5e61a46e309b1d7ca182fda313048e96",
		{"gpt2-s", "2a100+2v100", "hot0.3"}:       "2cd5e92c4c02771982c45039919e7b6a2c9aab751b38f9aa1e02aadc241c5031",
		{"gpt2-s", "v100x32-oversub4", "uniform"}: "b1ca17e3740b7abb9ac3b65bf8e9d3200cba0c3f286a3c2941dfd5ebcfd50a41",
		{"gpt2-s", "v100x32-oversub4", "zipf1.2"}: "0f75ae5d119645bfebe89d0bfc3fc06531978fa42d1c72b57cb81ef4c9620cc8",
		{"gpt2-s", "v100x32-oversub4", "hot0.3"}:  "cf446985214ed267c2dbeefa85020a950f22bc5d80c2c0d345db2c7d7029bfb0",
		{"gpt2-l", "v100x16", "uniform"}:          "8f61d37a4de0c999491e419ace42dd3078408248829afd77cfeeaf36a49fd4c4",
		{"gpt2-l", "v100x16", "zipf1.2"}:          "8f61d37a4de0c999491e419ace42dd3078408248829afd77cfeeaf36a49fd4c4",
		{"gpt2-l", "v100x16", "hot0.3"}:           "8d54a280ad7df988a8f6b12971c127cd150d2b58386bfea39ca4059423c5b851",
		{"gpt2-l", "a100x32", "uniform"}:          "7f93732730f422bdbae404f07e7fc4e8e42d25c563aa412562fd011ee5f3aacf",
		{"gpt2-l", "a100x32", "zipf1.2"}:          "b668d1c938f453e917a9bd56c545cf1e1a492320466d2898ccba5321e7a79dec",
		{"gpt2-l", "a100x32", "hot0.3"}:           "c893f543c4143910b3bbafd6fdb3bfe18e2fda8fb6ae3fae7f13af9bd25a7099",
		{"gpt2-l", "v100x64", "uniform"}:          "d5febf714f36d17c71f4e0dc5f6a0a6dd6620a4c0d4b4bfcd20a7fb3494af1a1",
		{"gpt2-l", "v100x64", "zipf1.2"}:          "e3d4c493cf133efeb4fa6730b1066cec08b1de280a73345cc79731f7e92787ce",
		{"gpt2-l", "v100x64", "hot0.3"}:           "f945fb10d27ef0d32b1ae13a53d998c8b8a97dc27fa72319988277f8d1078bb8",
		{"gpt2-l", "2a100+2v100", "uniform"}:      "9b6f20fb20907c3f4afb5601b0b9e4eb012e90fbe479dec340fdbeb1d0448d5b",
		{"gpt2-l", "2a100+2v100", "zipf1.2"}:      "c49594f7ab3c5f15777d3de605fd192e453cdc23e5a32f93f4628593c1359c44",
		{"gpt2-l", "2a100+2v100", "hot0.3"}:       "8cebab77c6895b740661ebee77c0888dafc7afbc4d8660162a2b034ae5d76eb5",
		{"gpt2-l", "v100x32-oversub4", "uniform"}: "860f6562e196e85bea7af9cf267303fb298ed9f7a6d2213c2362dc64c66ae295",
		{"gpt2-l", "v100x32-oversub4", "zipf1.2"}: "acb642632d114ab912463931fcbfca2c35a641785bb7ee6b97de056a946f20c3",
		{"gpt2-l", "v100x32-oversub4", "hot0.3"}:  "ca4b3112a02195348589718c848dc08a1df17a0c6a9a7e3818f2ac02427fdafe",
		{"vit-s", "v100x16", "uniform"}:           "60ddca71fc9067ff3515d81a3fee3e27adcf087bf0dce43109bb882d880b4ff7",
		{"vit-s", "v100x16", "zipf1.2"}:           "60ddca71fc9067ff3515d81a3fee3e27adcf087bf0dce43109bb882d880b4ff7",
		{"vit-s", "v100x16", "hot0.3"}:            "60ddca71fc9067ff3515d81a3fee3e27adcf087bf0dce43109bb882d880b4ff7",
		{"vit-s", "a100x32", "uniform"}:           "5e31172220502d630e3a15bd29550ca5701a8e4be4c4c3de05a44a28ab69f6d6",
		{"vit-s", "a100x32", "zipf1.2"}:           "e9a7e6eb9dcb24c998a732c0926c51de1f4eeb077d89c99ac5833fc6798b4941",
		{"vit-s", "a100x32", "hot0.3"}:            "b51df2c7a934f73eb524b5261b119740fe913c7a00c23020c7b0f9c58aa2c38c",
		{"vit-s", "v100x64", "uniform"}:           "c5df6c1982bd5d67b91d7066e5eb21dc37d569776e8b40add66d901b9f799c97",
		{"vit-s", "v100x64", "zipf1.2"}:           "0484418fe928bb3a259ec67c0015a0d97e1e77c3bdea182fc92a6edba80b3dd4",
		{"vit-s", "v100x64", "hot0.3"}:            "3e79b315cef1efe0f600b613687235d8d12b10efdfcaa2a2e6910088d32e90bc",
		{"vit-s", "2a100+2v100", "uniform"}:       "ac15da3862be841bbd6a6e853506c2eecb030127709543a8a313fe853c5728f6",
		{"vit-s", "2a100+2v100", "zipf1.2"}:       "06546490acc4642f0820f37ccd5d05bf7b9241c0f212c65c71b758e9fe7af361",
		{"vit-s", "2a100+2v100", "hot0.3"}:        "291ca2509f3bd9ccd286e23413e8eeab527139315bdebb38321e1723565e578c",
		{"vit-s", "v100x32-oversub4", "uniform"}:  "f294dde2a552d45743eec5da6f8f22f39758d0caef6ae492eac2021c1ce96766",
		{"vit-s", "v100x32-oversub4", "zipf1.2"}:  "3619e280b383ff709974598d992f84775c88c36f7d61477322c287912c0b4e36",
		{"vit-s", "v100x32-oversub4", "hot0.3"}:   "ef183eb0167e04da5c7278d69f08db31e92ed372e9e3dadaa76f1ce7edf37c96",
	}
	models := []string{"gpt2-s", "gpt2-l", "vit-s"}
	fleets := []string{"v100x16", "a100x32", "v100x64", "2a100+2v100", "v100x32-oversub4"}
	routings := []string{"uniform", "zipf1.2", "hot0.3"}
	for _, m := range models {
		for _, f := range fleets {
			for _, r := range routings {
				shape := goldenShape{m, f, r}
				sess, err := shape.session()
				if err != nil {
					t.Fatalf("%v: %v", shape, err)
				}
				before := graphHash(sess.Built.Graph)
				h := sha256.New()
				lp, err := sess.Lancet(lancet.Options{})
				if err != nil {
					t.Fatalf("%v: lancet: %v", shape, err)
				}
				fmt.Fprintf(h, "lancet\n")
				dumpGraph(h, lp.Graph)
				for _, fw := range []string{lancet.FrameworkTutel, lancet.FrameworkFasterMoE} {
					bp, err := sess.Baseline(fw)
					if err != nil {
						t.Fatalf("%v: %s: %v", shape, fw, err)
					}
					fmt.Fprintf(h, "%s degree %d\n", fw, bp.TutelDegree)
					dumpGraph(h, bp.Graph)
				}
				if after := graphHash(sess.Built.Graph); after != before {
					t.Errorf("%v: planning changed the session graph: %s -> %s", shape, before, after)
				}
				if got, want := hex.EncodeToString(h.Sum(nil)), golden[shape]; got != want {
					t.Errorf("%v: rewritten graphs hash %s, want %s", shape, got, want)
				}
			}
		}
	}
}

// goldenShapes lists the 45 plan-cold shapes in a fixed order.
func goldenShapes() []goldenShape {
	var shapes []goldenShape
	for _, m := range []string{"gpt2-s", "gpt2-l", "vit-s"} {
		for _, f := range []string{"v100x16", "a100x32", "v100x64", "2a100+2v100", "v100x32-oversub4"} {
			for _, r := range []string{"uniform", "zipf1.2", "hot0.3"} {
				shapes = append(shapes, goldenShape{m, f, r})
			}
		}
	}
	return shapes
}

// writePrices writes what a plan costs: its optimizer-visible prediction,
// the report of a seed-17 simulation and its DP evaluation count. Floats
// print in their shortest exact form, so equal dumps mean equal prices.
func writePrices(w hash.Hash, name string, p *lancet.Plan) error {
	pred, err := p.PredictUs()
	if err != nil {
		return err
	}
	rep, err := p.Simulate(17)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s predict %v evals %d\n%+v\n", name, pred, p.DPEvaluations, *rep)
	return nil
}

// TestPlanPricesGolden pins what the plans of the 45 plan-cold shapes cost —
// the Lancet plan's PredictUs, Simulate(17) report and DP evaluations, and
// the Tutel and FasterMoE plans' PredictUs and Simulate(17) — by a SHA-256
// per shape, so a pricing change that moves any of them by one bit fails
// here. The streamed leg re-plans each model on 16×V100 under Zipf 1.4, hot
// 0.6, then Zipf 1.4 again: a swap leaves the superseded profile's skew
// table in the cost model the session shares (DESIGN.md §16), so the third
// plan prices on the first plan's table and must price exactly like it.
func TestPlanPricesGolden(t *testing.T) {
	golden := map[goldenShape]string{
		{"gpt2-s", "v100x16", "uniform"}:          "37c4e07f141a2c4faded971857cb8684c5538d8f3164f8565bbfdc03cd7b2126",
		{"gpt2-s", "v100x16", "zipf1.2"}:          "5aaa082840c224fa1432137447023ca686d40cd0e00d7534908f2f23859f97bb",
		{"gpt2-s", "v100x16", "hot0.3"}:           "fd3a8fc2e69dc324ca4c835e6dce166a3b00013e2029875583205f18b5921d6c",
		{"gpt2-s", "a100x32", "uniform"}:          "c710268773539e7d638925fd61314eae3d420e062f3d19ac389b727d33989d32",
		{"gpt2-s", "a100x32", "zipf1.2"}:          "9a22b4f21dfa80f416590a8051273f3f898c68ec7b6e68f3da2c286713a303ca",
		{"gpt2-s", "a100x32", "hot0.3"}:           "b45636332acef8beee83be94dae1ec5b8cd7302da4771e960fcd2fae2fba7404",
		{"gpt2-s", "v100x64", "uniform"}:          "c44cb3eaa2815b7cdd05171d4b879c43539ccf688b1c3c2322b4730128df1a24",
		{"gpt2-s", "v100x64", "zipf1.2"}:          "704451534d73a6b32727b470edb358642f402efa5aade16751e7962c2112f567",
		{"gpt2-s", "v100x64", "hot0.3"}:           "e31555842cbcb41ffc110d6e8bff020171ae90b227227fc4b02a8fe1f4c787b0",
		{"gpt2-s", "2a100+2v100", "uniform"}:      "b6a4b1a975707076c4b994f39d7406632f57d93a9f6121c3003f5557d8c278d1",
		{"gpt2-s", "2a100+2v100", "zipf1.2"}:      "21db3047a3093207d3f993852b9fbc015364ab2d2efc7cd7f75df5d04c4e43a5",
		{"gpt2-s", "2a100+2v100", "hot0.3"}:       "be90556ef35bceefe7e5cda7b53492fedf6e09d0391a3d12c16a70fce6de8ee2",
		{"gpt2-s", "v100x32-oversub4", "uniform"}: "5dd190d0246a6bb21c2ae62277c431f9266cda3ca5c46419744fa887f01db1fe",
		{"gpt2-s", "v100x32-oversub4", "zipf1.2"}: "459896969d5e686e41b744bfbe72c0051ba7c70d3bc9e45e9b1e69c3637cfcf2",
		{"gpt2-s", "v100x32-oversub4", "hot0.3"}:  "a074ba3fad4634fad64925266c899965914efa26c4e3743113a59c0728ac1bc6",
		{"gpt2-l", "v100x16", "uniform"}:          "e629e7f9361144e0628ba75a90ad8dae3b321b65126f1f0dc2ec6be1fad819a5",
		{"gpt2-l", "v100x16", "zipf1.2"}:          "2c82bf50a32ea461f1cb6206dac52d1857efd1dd0186401ee5839ea17657f6c0",
		{"gpt2-l", "v100x16", "hot0.3"}:           "40ff7f40189ad9c72d29b195baf86d0ba905933470cfee7cdc4bc54322b796a3",
		{"gpt2-l", "a100x32", "uniform"}:          "babee00f700da7748a3a7e6fd3170cb2a104604ab8def42a92d6971ce3e09a78",
		{"gpt2-l", "a100x32", "zipf1.2"}:          "9d2c13919e01df1c814f4f2c36e699044178d69ab515c023e0b667d0bb4198bf",
		{"gpt2-l", "a100x32", "hot0.3"}:           "928c940f81b181b7dd74a159b9db8b846bd0c4b4a6647993a7465ed3a56d40ff",
		{"gpt2-l", "v100x64", "uniform"}:          "821e5e50059f16ef2615c50736f7048102dded885b25d1311559f73e5a049e80",
		{"gpt2-l", "v100x64", "zipf1.2"}:          "314a205dfa6e9212ebbeb10d2cc61f58f39c70f55f57bc54e5eca421b212f6c5",
		{"gpt2-l", "v100x64", "hot0.3"}:           "1f3aeb98b041021a08e900bdace6ee36059c96f85c00db1268fc01e847f5cd5e",
		{"gpt2-l", "2a100+2v100", "uniform"}:      "b7b40eee3b4378c97b3845efe0e0e51fbc46cc8035737a638652f11898000e2a",
		{"gpt2-l", "2a100+2v100", "zipf1.2"}:      "de6fceda38bf8e59636cdb3b3bacc6093c31377b0ce007e67f21926893bc1e81",
		{"gpt2-l", "2a100+2v100", "hot0.3"}:       "dcb0b2bb913d7cf3e5bd15267e6b5d7032c65ffee178b589d9f62676b5da25ce",
		{"gpt2-l", "v100x32-oversub4", "uniform"}: "8205ca80b808ba78c17c991d0e844a402fb5c0904cc018535551a92abdbcf21c",
		{"gpt2-l", "v100x32-oversub4", "zipf1.2"}: "519810c62fd92e9ed5c3ec158e27554a67c5d08d74fb956ae646398bb2f83038",
		{"gpt2-l", "v100x32-oversub4", "hot0.3"}:  "e7070b9710b29775698f69100d2c81c3fe968e16bbf71a94097f1bce79f1d60a",
		{"vit-s", "v100x16", "uniform"}:           "a8d31a49c9d145e01dc0ea85417154dc8fd258832b54f5d6b9780afc23fd2b37",
		{"vit-s", "v100x16", "zipf1.2"}:           "d3036da288a22a0915dc848203af6e35e48ed5ce2266d4c1179037a37287a26e",
		{"vit-s", "v100x16", "hot0.3"}:            "fad1f418203303b9ba68c22af31f26c0941f2e4f9ee49fca95a805769e81e4af",
		{"vit-s", "a100x32", "uniform"}:           "208adf92f89ef9287c5b28a26852ebbfdd1683fd2dc9770752bbfc05151c0a60",
		{"vit-s", "a100x32", "zipf1.2"}:           "ed9b04a9d9ff996b075cac5763962f278dbbfb2d9c77ea159b52e2832cb3de8c",
		{"vit-s", "a100x32", "hot0.3"}:            "6eb3ebaddb568cf16b2fad06330994e6692f0eea80b242b370ec7b2423f49f60",
		{"vit-s", "v100x64", "uniform"}:           "c3463205a46b26348028422b6e90d39ce5b7368c5d64392ff899106656aa5406",
		{"vit-s", "v100x64", "zipf1.2"}:           "205ee9c00b97e7026df6cfb671736197cd7b4bb66c60c8986612b080e6dd42d5",
		{"vit-s", "v100x64", "hot0.3"}:            "f709e6aa484adf13469e8d13e14fda2b383f45bea56308b08f7803c685c8f293",
		{"vit-s", "2a100+2v100", "uniform"}:       "23e2a23f42545dd22899180f4d4bfa48c0d686a0d0de40e7bf770fd2bcba99af",
		{"vit-s", "2a100+2v100", "zipf1.2"}:       "0bab1d10d1dc9c5e4de1b4c77970cb525c3f048c867c24b6f4458624de11d23e",
		{"vit-s", "2a100+2v100", "hot0.3"}:        "719098d875e2bb1125d648c118c18021f221596c82f3a21cbd719f4998a4c4bf",
		{"vit-s", "v100x32-oversub4", "uniform"}:  "8f4f11efd811832735ae2090460e3b4392b9d2b9b667cecee3f2f0f5851bd5e9",
		{"vit-s", "v100x32-oversub4", "zipf1.2"}:  "89244351e99e0c7f97e4d619b2fb5f563dfd37e04f6f8a5c86b8bfd04b4d05af",
		{"vit-s", "v100x32-oversub4", "hot0.3"}:   "b95eb98b3a0030ad4bf91d1ca6036be6cd3b6142dc2abfefe1f83d73e82b6bff",
	}
	for _, shape := range goldenShapes() {
		sess, err := shape.session()
		if err != nil {
			t.Fatalf("%v: %v", shape, err)
		}
		h := sha256.New()
		lp, err := sess.Lancet(lancet.Options{})
		if err != nil {
			t.Fatalf("%v: lancet: %v", shape, err)
		}
		if err := writePrices(h, lancet.FrameworkLancet, lp); err != nil {
			t.Fatalf("%v: lancet: %v", shape, err)
		}
		for _, fw := range []string{lancet.FrameworkTutel, lancet.FrameworkFasterMoE} {
			bp, err := sess.Baseline(fw)
			if err != nil {
				t.Fatalf("%v: %s: %v", shape, fw, err)
			}
			if err := writePrices(h, fw, bp); err != nil {
				t.Fatalf("%v: %s: %v", shape, fw, err)
			}
		}
		if got, want := hex.EncodeToString(h.Sum(nil)), golden[shape]; got != want {
			t.Errorf("%v: plan prices hash %s, want %s", shape, got, want)
		}
	}

	streamed := map[string]string{
		"gpt2-s": "45a3da18dd4978954772eef4b2edc90a87f67265fa06218758202d2a3fdcb3a3",
		"gpt2-l": "04986dd063a967fd44b7f6ea6632c14e1e87dbb058192c19e95188bec238ad9a",
		"vit-s":  "018a1d57c9897eb7d0d9871e7f5bde68c8c1a8ec630d026a285584b6171ab8a9",
	}
	for _, model := range []string{"gpt2-s", "gpt2-l", "vit-s"} {
		sess, err := goldenShape{model, "v100x16", "uniform"}.session()
		if err != nil {
			t.Fatalf("%s: %v", model, err)
		}
		stream := sha256.New()
		var prices []string
		for _, wp := range []*netsim.RoutingProfile{
			netsim.ZipfProfile(16, 1.4), netsim.HotExpertProfile(16, 0.6), netsim.ZipfProfile(16, 1.4),
		} {
			if err := sess.SetWorkloadProfile(wp); err != nil {
				t.Fatalf("%s: %v", model, err)
			}
			p, err := sess.Lancet(lancet.Options{})
			if err != nil {
				t.Fatalf("%s: lancet: %v", model, err)
			}
			h := sha256.New()
			if err := writePrices(h, lancet.FrameworkLancet, p); err != nil {
				t.Fatalf("%s: %v", model, err)
			}
			prices = append(prices, hex.EncodeToString(h.Sum(nil)))
			fmt.Fprintln(stream, prices[len(prices)-1])
		}
		if prices[0] != prices[2] {
			t.Errorf("%s: Zipf 1.4 re-installed after hot 0.6 prices %s, first install %s", model, prices[2], prices[0])
		}
		if got, want := hex.EncodeToString(stream.Sum(nil)), streamed[model]; got != want {
			t.Errorf("%s: streamed plan prices hash %s, want %s", model, got, want)
		}
	}
}
