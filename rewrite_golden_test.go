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
// shape, dtype and kind, then every instruction field, operands included.
// Floats print in their shortest exact form, so equal dumps mean equal
// graphs.
func dumpGraph(w hash.Hash, g *ir.Graph) {
	fmt.Fprintf(w, "tensors %d\n", len(g.Tensors))
	for _, t := range g.Tensors {
		fmt.Fprintf(w, "%d %q %v %d %d\n", t.ID, t.Name, []int(t.Shape), t.DType, t.Kind)
	}
	fmt.Fprintf(w, "instrs %d\n", len(g.Instrs))
	for _, in := range g.Instrs {
		fmt.Fprintf(w, "%+v\n", *in)
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
		{"gpt2-s", "v100x16", "uniform"}:          "b818f50466a7bbd0cf9163dc36883ea5dba1751670b76bf0fd494d661c3f9282",
		{"gpt2-s", "v100x16", "zipf1.2"}:          "b818f50466a7bbd0cf9163dc36883ea5dba1751670b76bf0fd494d661c3f9282",
		{"gpt2-s", "v100x16", "hot0.3"}:           "4d77cbfea30e244b1c44fc6a24af96fe2f84246aeabf3858338a7a3d95a5f854",
		{"gpt2-s", "a100x32", "uniform"}:          "89a4ee42a736b6d68072ef418a1060e66625aa3f88520e7d76dbe1162f36b784",
		{"gpt2-s", "a100x32", "zipf1.2"}:          "0e4728427aa5b80b38528fdb66d0d282196c167adfb7e3555d2c1204575b9be5",
		{"gpt2-s", "a100x32", "hot0.3"}:           "c1a327003421ff3ccb98429c24c8f622de0f7fda00e94d8f203df6ac58b8358a",
		{"gpt2-s", "v100x64", "uniform"}:          "a9e8854e3bb608813f4171c808a23a391b3ca44a06ca24a975732aefd2d05729",
		{"gpt2-s", "v100x64", "zipf1.2"}:          "c5532797a805239fee6b87fb2380923ca0f0ab218a24e2091aaf32a826b5b2a1",
		{"gpt2-s", "v100x64", "hot0.3"}:           "cdb1b8a41fe50f48717b45746f1ec8d4382b6311221b5093016b9d1011bdc60b",
		{"gpt2-s", "2a100+2v100", "uniform"}:      "21dbd7b4fcbc5c97406bb8c6c1f285f2d31690562d13e4047a492daeb43f6ac5",
		{"gpt2-s", "2a100+2v100", "zipf1.2"}:      "e59a93e7f6634aea4da5f93633157c0dfa1cb22189eaaf2ca3bb707ca129fea4",
		{"gpt2-s", "2a100+2v100", "hot0.3"}:       "08fa16ab89e34dd82760bc760bb514afbf8942966637bc72a21dcadbe682080f",
		{"gpt2-s", "v100x32-oversub4", "uniform"}: "2791094057362149c2b10b4781d592678c2d8880f46a1d58aee6d23c9b7a9cb5",
		{"gpt2-s", "v100x32-oversub4", "zipf1.2"}: "290ee186ffa1c1b9a4acc6156a2c55b3fe8c587f11501e33d378113f220578f0",
		{"gpt2-s", "v100x32-oversub4", "hot0.3"}:  "acf0c0e90e346226697969d6a2f7d7a1895a13cd909d0eff5f324b297b515b1e",
		{"gpt2-l", "v100x16", "uniform"}:          "238d0a90a49a0b5d2752c9926b75aaef6bc0d1ea239f34c22e84b6e0309c58c6",
		{"gpt2-l", "v100x16", "zipf1.2"}:          "238d0a90a49a0b5d2752c9926b75aaef6bc0d1ea239f34c22e84b6e0309c58c6",
		{"gpt2-l", "v100x16", "hot0.3"}:           "d67135c0f528b374db645d01798898de7577b75d0e52b67b9700f59fb9e9b075",
		{"gpt2-l", "a100x32", "uniform"}:          "9174dce6a02b964b6cd2e0dc7df271a62be552e21b0c32546d74df1970a293f3",
		{"gpt2-l", "a100x32", "zipf1.2"}:          "144672b398345799a6650c5e0524e6ef0bdd5c519f3cc760af81310388cce149",
		{"gpt2-l", "a100x32", "hot0.3"}:           "0c985f5966a21cd37959cf791d95f6519550f550c5b3044ec1dd88e01b45a276",
		{"gpt2-l", "v100x64", "uniform"}:          "2a7e1c8b128fb3d7ef742ef716fe4c24517d1dc1c38fe4b5751d664060f1474d",
		{"gpt2-l", "v100x64", "zipf1.2"}:          "bb0efb56d1a6548c1560d820d805e6d71176d191ca5bc9909323c73e1b0b7e64",
		{"gpt2-l", "v100x64", "hot0.3"}:           "980ba44f9d4f814632080723dd925822c23271c84517eb18ac1e126ae9ac44c8",
		{"gpt2-l", "2a100+2v100", "uniform"}:      "aa2118fab40e2b973b33ad9af12b42e7fdc7d489003631e891168ebfeb9c7c9b",
		{"gpt2-l", "2a100+2v100", "zipf1.2"}:      "482a3e55564e8c8d7daefadce9ca1bb8aab88b4d6ce5f1fa9dcf4a003836fdd6",
		{"gpt2-l", "2a100+2v100", "hot0.3"}:       "e34c3e21211a10c2651f55da4ecb91430c4c793230db63a5426701be30d184de",
		{"gpt2-l", "v100x32-oversub4", "uniform"}: "b1ceabac368550083c50ad118c36e96a83786bc1670fa709fa07e05ef029af4d",
		{"gpt2-l", "v100x32-oversub4", "zipf1.2"}: "272b266c827b7198756cd88fdf195ad56992794a3e26a3e3f68ee0e26e0ab7e8",
		{"gpt2-l", "v100x32-oversub4", "hot0.3"}:  "6c09f7bbfcccd8eab13a1c50d91880cc7cd533bab2cc595b3115dc7713bf1cd5",
		{"vit-s", "v100x16", "uniform"}:           "bf979d0fcb1b30d4ba45d6c510fcd0adc0d68ba0680a9a90a1f52442b6c9b1c8",
		{"vit-s", "v100x16", "zipf1.2"}:           "bf979d0fcb1b30d4ba45d6c510fcd0adc0d68ba0680a9a90a1f52442b6c9b1c8",
		{"vit-s", "v100x16", "hot0.3"}:            "bf979d0fcb1b30d4ba45d6c510fcd0adc0d68ba0680a9a90a1f52442b6c9b1c8",
		{"vit-s", "a100x32", "uniform"}:           "21160a7421618aaf51681a5615e0e6dbf89a03cec85518ad9367a445a7cbfa58",
		{"vit-s", "a100x32", "zipf1.2"}:           "0624bae8363b936c80085a87ae5615567e395338c9187c8c8b20539947834420",
		{"vit-s", "a100x32", "hot0.3"}:            "22ff137a42797bfbee69f2874dccc9787ac8862f72615291e70b412d432e7440",
		{"vit-s", "v100x64", "uniform"}:           "75e23c7b1e342a0624f10bf758e06616db576fc18bb29a28b287fe4ebaa6d941",
		{"vit-s", "v100x64", "zipf1.2"}:           "dea6f4ad06ace523ec8516d62368bb8c8d1f52c35860cc0a50397a26b2f4d1d7",
		{"vit-s", "v100x64", "hot0.3"}:            "086eb92016a6b213e880c14bc9a45182550112496c695315c865b2861bf56a5e",
		{"vit-s", "2a100+2v100", "uniform"}:       "92eebf2ce93aadfd18bad69301e5de594299f6695928efb2c89d79a25d0680a8",
		{"vit-s", "2a100+2v100", "zipf1.2"}:       "9c81444521ae65cb7bb81e7a17a42cac75683ecbe98424cfc6d2905a3564ccf7",
		{"vit-s", "2a100+2v100", "hot0.3"}:        "8b476226f0bb768c9d8a28a47bb5232ac6a3afc0fa2e211247a5bb177492ff5a",
		{"vit-s", "v100x32-oversub4", "uniform"}:  "dfe5fd9e6d6d6d598ece7b257437867e6c79e262adebd57c144beece44ad4571",
		{"vit-s", "v100x32-oversub4", "zipf1.2"}:  "a91856f27672407f4919f1f18ad6bba6974c2acf348313e7445b3028c8d3e825",
		{"vit-s", "v100x32-oversub4", "hot0.3"}:   "31a33d46271fbe4d46047444b89442da4e86aea8de3416484251c8c588e8ab7a",
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
// 0.6, then Zipf 1.4 again: each swap invalidates the superseded profile's
// memoized prices (DESIGN.md §16), so the third plan must price exactly like
// the first.
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
