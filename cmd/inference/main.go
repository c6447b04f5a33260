// Command inference runs the operator-graph (LLM-inference) replay study:
// every selected network replays dependency-scheduled DAGs of typed
// operators — attention, FFN/MoE, collectives, pointwise stages — whose
// edges become cross-site tensor transfers. It reports makespan, delivered
// goodput, and per-class packet counts per (network, graph, batch, seq)
// point.
//
//	inference                                    full sweep, all presets
//	inference -networks point-to-point           one network
//	inference -graphs prefill,moe-64-expert      selected presets
//	inference -batches 1,8 -seqs 16,128          custom scale grid
//	inference -graph-json layer.json             a user-supplied DAG
//	inference -csv inference.csv                 also write the CSV
//
// -quick runs the one-point-per-graph sweep pinned by the committed golden
// (harness.QuickInferenceConfig); -j bounds the worker pool (0 = all
// cores, 1 = serial; output is byte-identical either way because each
// point's seed derives purely from its identity). Results are cached
// content-addressed under -cache-dir (default
// os.UserCacheDir()/macrochip/expcache; -no-cache opts out).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"macrochip/internal/distflags"
	"macrochip/internal/expcache"
	"macrochip/internal/harness"
	"macrochip/internal/networks"
	"macrochip/internal/opgraph"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("inference: ")
	nets := flag.String("networks", "", "comma-separated network kinds (default: all six)")
	graphs := flag.String("graphs", "", "comma-separated graph presets: "+strings.Join(opgraph.PresetNames(), ",")+" (default: all)")
	graphJSON := flag.String("graph-json", "", "replay a user-supplied DAG from this JSON file instead of the presets")
	batches := flag.String("batches", "", "comma-separated batch sizes (default: 1,8)")
	seqs := flag.String("seqs", "", "comma-separated sequence lengths (default: 16,64)")
	mtu := flag.Int("mtu", 0, "transfer packet size in bytes (0 = the graph's own MTU, then 4096; negative is rejected)")
	jitter := flag.Float64("jitter", 0, "compute-window jitter fraction (0 = none)")
	quick := flag.Bool("quick", false, "run the golden-pinned quick sweep (one point per graph)")
	seed := flag.Int64("seed", 1, "random seed")
	jobs := flag.Int("j", 0, "parallel simulation workers (0 = GOMAXPROCS, 1 = serial)")
	csvPath := flag.String("csv", "", "also write the sweep as CSV to this file")
	cacheDir := flag.String("cache-dir", expcache.DefaultDir(), `experiment result cache directory ("" disables)`)
	noCache := flag.Bool("no-cache", false, "disable the experiment result cache")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	df := distflags.Register(flag.CommandLine)
	flag.Parse()

	cache, cerr := expcache.OpenOrDisable(*cacheDir, *noCache)
	if cerr != nil {
		log.Print("cache disabled: ", cerr)
	}
	df.AttachRemote(cache)
	dist, derr := df.Coordinator(*seed, *cacheDir, *noCache)
	if derr != nil {
		log.Fatal(derr)
	}
	if dist != nil {
		defer func() { log.Print(dist.Summary()) }()
		defer dist.Close()
	}
	defer func() { log.Print(cache.Summary()) }()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			log.Fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	defer writeMemProfile(*memprofile)

	cfg := harness.DefaultInferenceConfig()
	if *quick {
		cfg = harness.QuickInferenceConfig()
	}
	cfg.Seed = *seed
	cfg.PacketBytes = *mtu
	cfg.JitterFrac = *jitter
	if *nets != "" {
		for _, s := range strings.Split(*nets, ",") {
			k := networks.Kind(strings.TrimSpace(s))
			if !known(k) {
				log.Fatalf("unknown network %q (have %v)", k, networks.Six())
			}
			cfg.Networks = append(cfg.Networks, k)
		}
	}
	if *graphs != "" {
		cfg.Graphs = splitList(*graphs)
	}
	if *graphJSON != "" {
		g, err := opgraph.LoadJSONFile(*graphJSON, cfg.Params.Grid)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Custom = g
		if *graphs == "" {
			cfg.Graphs = []string{g.Name}
		}
	}
	if *batches != "" {
		cfg.Batches = parseInts(*batches, "batch")
	}
	if *seqs != "" {
		cfg.SeqLens = parseInts(*seqs, "seq")
	}

	points, err := harness.InferenceStudyWith(harness.Runner{Workers: *jobs, Cache: cache, Dist: dist}, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(harness.RenderInference(points))

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := harness.WriteInferenceCSV(f, points); err != nil {
			f.Close()
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *csvPath)
	}
}

func splitList(s string) []string {
	var out []string
	for _, v := range strings.Split(s, ",") {
		out = append(out, strings.TrimSpace(v))
	}
	return out
}

func parseInts(s, what string) []int {
	var out []int
	for _, v := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(v))
		if err != nil {
			log.Fatalf("bad %s %q: %v", what, v, err)
		}
		out = append(out, n)
	}
	return out
}

func known(k networks.Kind) bool {
	for _, have := range networks.Six() {
		if k == have {
			return true
		}
	}
	return false
}

// writeMemProfile snapshots the heap into path (no-op for ""); a GC first
// makes the profile reflect live objects, not collection timing.
func writeMemProfile(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		log.Print(err)
		return
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		log.Print(err)
	}
}
