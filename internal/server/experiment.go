package server

import (
	"bytes"
	"fmt"
	"strings"

	"macrochip/internal/core"
	"macrochip/internal/fault"
	"macrochip/internal/harness"
	"macrochip/internal/networks"
	"macrochip/internal/opgraph"
	"macrochip/internal/sim"
	"macrochip/internal/traffic"
	"macrochip/internal/workload"
)

// ExperimentConfig is the request body of POST /v1/experiments: one
// experiment of one of the five study kinds. Every field that feeds a
// simulation flows into the same harness entry points cmd/figures,
// cmd/report, cmd/resilience and cmd/inference call with the same
// defaults, and every point's seed derives purely from (seed, point
// identity), so a daemon response is byte-identical to the CLI output for
// the same config — and content-addressable in the shared result cache.
type ExperimentConfig struct {
	// Kind selects the study: "figure6", "study", "scaling", "resilience",
	// "inference".
	Kind string `json:"kind"`
	// Seed is the base random seed; 0 means the CLI default of 1.
	Seed int64 `json:"seed,omitempty"`
	// Quick shrinks the simulation windows exactly like the CLIs' -quick.
	Quick bool `json:"quick,omitempty"`

	// Pattern names the figure-6 traffic pattern: uniform, transpose,
	// neighbor, butterfly (required for kind "figure6").
	Pattern string `json:"pattern,omitempty"`
	// Networks restricts figure6/resilience to a subset of network kinds
	// (default: the study's full set).
	Networks []string `json:"networks,omitempty"`
	// Loads restricts figure6 to specific offered loads, as fractions of
	// site bandwidth in (0, 1] (default: the paper's per-pattern grid).
	Loads []float64 `json:"loads,omitempty"`
	// WarmupNS/MeasureNS override the simulation windows (figure6 and
	// resilience). Zero keeps the study default.
	WarmupNS  float64 `json:"warmup_ns,omitempty"`
	MeasureNS float64 `json:"measure_ns,omitempty"`

	// Scale is the workload instruction-quota scale for kind "study"
	// (default 1.0).
	Scale float64 `json:"scale,omitempty"`

	// GridSizes lists the N of each N×N macrochip for kind "scaling"
	// (default 4, 8, 16).
	GridSizes []int `json:"grid_sizes,omitempty"`

	// Classes, Rates, Load and MTTRMicros configure kind "resilience",
	// mirroring cmd/resilience's -classes/-rates/-load/-mttr flags.
	Classes    []string  `json:"classes,omitempty"`
	Rates      []float64 `json:"rates,omitempty"`
	Load       float64   `json:"load,omitempty"`
	MTTRMicros float64   `json:"mttr_us,omitempty"`

	// Graphs, Batches and SeqLens configure kind "inference", mirroring
	// cmd/inference's -graphs/-batches/-seqs flags (presets only — the
	// -graph-json escape hatch stays CLI-local).
	Graphs  []string `json:"graphs,omitempty"`
	Batches []int    `json:"batches,omitempty"`
	SeqLens []int    `json:"seq_lens,omitempty"`
	// MTU is the inference transfer packet size, mirroring cmd/inference
	// -mtu. Zero means the default (opgraph.DefaultMTU); negative is a 400.
	MTU int `json:"mtu,omitempty"`
}

// maxWindowNS bounds warmup+measure overrides so one request cannot pin a
// worker for an unbounded simulated horizon; the paper's own figure-6
// window is 8 µs, two orders of magnitude under the cap.
const maxWindowNS = 1e6

// ConfigError is a request-validation failure; Field names the offending
// JSON field when known. Handlers render it as a structured 400 body.
type ConfigError struct {
	Field string
	Msg   string
}

func (e *ConfigError) Error() string {
	if e.Field == "" {
		return e.Msg
	}
	return e.Field + ": " + e.Msg
}

func badField(field, format string, args ...any) *ConfigError {
	return &ConfigError{Field: field, Msg: fmt.Sprintf(format, args...)}
}

// normalize validates cfg and fills CLI-equivalent defaults, returning the
// canonical config that is both executed and displayed in job status.
func (cfg ExperimentConfig) normalize() (ExperimentConfig, error) {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.WarmupNS < 0 || cfg.MeasureNS < 0 {
		return cfg, badField("warmup_ns", "simulation windows must be non-negative")
	}
	if cfg.WarmupNS+cfg.MeasureNS > maxWindowNS {
		return cfg, badField("measure_ns", "warmup+measure window exceeds %g ns", float64(maxWindowNS))
	}
	switch cfg.Kind {
	case "figure6":
		if _, err := traffic.ByName(cfg.Pattern, core.DefaultParams().Grid); err != nil {
			return cfg, badField("pattern", "unknown pattern %q (want uniform, transpose, neighbor or butterfly)", cfg.Pattern)
		}
		if _, err := parseKinds(cfg.Networks, networks.Five()); err != nil {
			return cfg, err
		}
		if len(cfg.Loads) > 64 {
			return cfg, badField("loads", "at most 64 loads per request")
		}
		for _, l := range cfg.Loads {
			if l <= 0 || l > 1 {
				return cfg, badField("loads", "load %g outside (0, 1]", l)
			}
		}
	case "study":
		if cfg.Scale == 0 {
			cfg.Scale = 1.0
		}
		if cfg.Scale < 0 || cfg.Scale > 4 {
			return cfg, badField("scale", "scale %g outside (0, 4]", cfg.Scale)
		}
	case "scaling":
		if cfg.GridSizes == nil {
			cfg.GridSizes = []int{4, 8, 16}
		}
		if len(cfg.GridSizes) > 16 {
			return cfg, badField("grid_sizes", "at most 16 grid sizes per request")
		}
		for _, n := range cfg.GridSizes {
			if n < 2 || n > 64 {
				return cfg, badField("grid_sizes", "grid size %d outside [2, 64]", n)
			}
		}
	case "resilience":
		if _, err := parseKinds(cfg.Networks, networks.Six()); err != nil {
			return cfg, err
		}
		for _, s := range cfg.Classes {
			if _, err := fault.ParseClass(s); err != nil {
				return cfg, badField("classes", "%v", err)
			}
		}
		if len(cfg.Rates) > 16 {
			return cfg, badField("rates", "at most 16 rates per request")
		}
		for _, r := range cfg.Rates {
			if r < 0 {
				return cfg, badField("rates", "negative fault rate %g", r)
			}
		}
		if cfg.Load < 0 || cfg.Load > 1 {
			return cfg, badField("load", "load %g outside [0, 1]", cfg.Load)
		}
		if cfg.MTTRMicros < 0 {
			return cfg, badField("mttr_us", "negative MTTR")
		}
	case "inference":
		if _, err := parseKinds(cfg.Networks, networks.Six()); err != nil {
			return cfg, err
		}
		for _, g := range cfg.Graphs {
			if !isPreset(g) {
				return cfg, badField("graphs", "unknown graph preset %q (have %s)", g, strings.Join(opgraph.PresetNames(), ", "))
			}
		}
		if len(cfg.Batches) > 8 || len(cfg.SeqLens) > 8 {
			return cfg, badField("batches", "at most 8 batches and 8 seq_lens per request")
		}
		for _, b := range cfg.Batches {
			if b < 1 || b > 64 {
				return cfg, badField("batches", "batch %d outside [1, 64]", b)
			}
		}
		for _, s := range cfg.SeqLens {
			if s < 1 || s > 512 {
				return cfg, badField("seq_lens", "seq %d outside [1, 512]", s)
			}
		}
		if cfg.MTU < 0 || cfg.MTU > 1<<20 {
			return cfg, badField("mtu", "mtu %d outside [0, 1048576] (0 = the %d-byte default)", cfg.MTU, opgraph.DefaultMTU)
		}
	case "":
		return cfg, badField("kind", "kind is required (figure6, study, scaling, resilience or inference)")
	default:
		return cfg, badField("kind", "unknown kind %q (want figure6, study, scaling, resilience or inference)", cfg.Kind)
	}
	return cfg, nil
}

// parseKinds maps network names onto the allowed set for the study.
func parseKinds(names []string, allowed []networks.Kind) ([]networks.Kind, error) {
	if len(names) == 0 {
		return nil, nil
	}
	kinds := make([]networks.Kind, 0, len(names))
	for _, s := range names {
		k := networks.Kind(s)
		ok := false
		for _, have := range allowed {
			if k == have {
				ok = true
				break
			}
		}
		if !ok {
			return nil, badField("networks", "unknown network %q (have %v)", s, allowed)
		}
		kinds = append(kinds, k)
	}
	return kinds, nil
}

// Result is one finished experiment in every format the daemon serves. CSV
// bytes come from the same harness writers cmd/figures uses, so they are
// byte-identical to the CLI artifacts for the same config.
type Result struct {
	CSV   []byte
	Text  string
	Value any
}

// run executes one normalized config on the shared Runner. It is called
// from queue workers only; the Runner's cache single-flights identical
// concurrent experiments down to one simulation per point.
func (cfg ExperimentConfig) run(r harness.Runner) (*Result, error) {
	switch cfg.Kind {
	case "figure6":
		return cfg.runFigure6(r)
	case "study":
		return cfg.runStudy(r)
	case "scaling":
		return cfg.runScaling(r)
	case "resilience":
		return cfg.runResilience(r)
	case "inference":
		return cfg.runInference(r)
	}
	return nil, badField("kind", "unknown kind %q", cfg.Kind)
}

// isPreset reports whether g names a built-in operator-graph preset.
func isPreset(g string) bool {
	for _, p := range opgraph.PresetNames() {
		if p == g {
			return true
		}
	}
	return false
}

func (cfg ExperimentConfig) runFigure6(r harness.Runner) (*Result, error) {
	base := harness.DefaultLoadPointConfig()
	base.Seed = cfg.Seed
	if cfg.Quick {
		base.Warmup = 500 * sim.Nanosecond
		base.Measure = 1500 * sim.Nanosecond
	}
	if cfg.WarmupNS > 0 {
		base.Warmup = sim.FromNanoseconds(cfg.WarmupNS)
	}
	if cfg.MeasureNS > 0 {
		base.Measure = sim.FromNanoseconds(cfg.MeasureNS)
	}
	kinds, err := parseKinds(cfg.Networks, networks.Five())
	if err != nil {
		return nil, err
	}
	panel, err := harness.Figure6PanelWith(r, base, cfg.Pattern, kinds, cfg.Loads)
	if err != nil {
		return nil, err
	}
	var csv bytes.Buffer
	if err := harness.WriteFigure6CSV(&csv, panel); err != nil {
		return nil, err
	}
	return &Result{CSV: csv.Bytes(), Text: harness.RenderFigure6(panel), Value: panel}, nil
}

func (cfg ExperimentConfig) runStudy(r harness.Runner) (*Result, error) {
	s := workload.Scale(cfg.Scale)
	if cfg.Quick {
		s = workload.Scale(cfg.Scale * 0.1)
	}
	rows := harness.FullStudyWith(r, core.DefaultParams(), s, cfg.Seed)
	var csv bytes.Buffer
	if err := harness.WriteStudyCSV(&csv, rows); err != nil {
		return nil, err
	}
	text := strings.Join([]string{
		harness.RenderFigure7(rows), harness.RenderFigure8(rows),
		harness.RenderFigure9(rows), harness.RenderFigure10(rows),
	}, "\n")
	return &Result{CSV: csv.Bytes(), Text: text, Value: rows}, nil
}

func (cfg ExperimentConfig) runScaling(r harness.Runner) (*Result, error) {
	rows := harness.ScalingStudyWith(r, cfg.GridSizes)
	var csv bytes.Buffer
	if err := harness.WriteScalingCSV(&csv, rows); err != nil {
		return nil, err
	}
	var text strings.Builder
	for _, row := range rows {
		fmt.Fprintf(&text, "%d×%d (%d sites, %.0f TB/s peak)\n", row.N, row.N, row.Sites, row.PeakTBs)
		for _, k := range networks.Six() {
			c := row.Networks[k]
			fmt.Fprintf(&text, "  %-24s wgs=%-8d switches=%-7d loss=%6.1f dB  laser=%12.4g W\n",
				k, c.Waveguides, c.Switches, c.ExtraLossDB, c.LaserWatts)
		}
	}
	return &Result{CSV: csv.Bytes(), Text: text.String(), Value: rows}, nil
}

func (cfg ExperimentConfig) runResilience(r harness.Runner) (*Result, error) {
	rcfg := harness.DefaultResilienceConfig()
	rcfg.Seed = cfg.Seed
	if cfg.Quick {
		rcfg.Warmup = 250 * sim.Nanosecond
		rcfg.Measure = 1 * sim.Microsecond
		rcfg.MTTR = 500 * sim.Nanosecond
		rcfg.Retry.Timeout = 500 * sim.Nanosecond
	}
	if cfg.WarmupNS > 0 {
		rcfg.Warmup = sim.FromNanoseconds(cfg.WarmupNS)
	}
	if cfg.MeasureNS > 0 {
		rcfg.Measure = sim.FromNanoseconds(cfg.MeasureNS)
	}
	if cfg.Load > 0 {
		rcfg.Load = cfg.Load
	}
	if cfg.MTTRMicros > 0 {
		rcfg.MTTR = sim.FromNanoseconds(cfg.MTTRMicros * 1e3)
	}
	kinds, err := parseKinds(cfg.Networks, networks.Six())
	if err != nil {
		return nil, err
	}
	rcfg.Networks = kinds
	for _, s := range cfg.Classes {
		c, err := fault.ParseClass(s)
		if err != nil {
			return nil, badField("classes", "%v", err)
		}
		rcfg.Classes = append(rcfg.Classes, c)
	}
	if cfg.Rates != nil {
		rcfg.Rates = cfg.Rates
	}
	points := harness.ResilienceStudyWith(r, rcfg)
	var csv bytes.Buffer
	if err := harness.WriteResilienceCSV(&csv, points); err != nil {
		return nil, err
	}
	return &Result{CSV: csv.Bytes(), Text: harness.RenderResilience(points), Value: points}, nil
}

func (cfg ExperimentConfig) runInference(r harness.Runner) (*Result, error) {
	icfg := harness.DefaultInferenceConfig()
	if cfg.Quick {
		// The quick sweep is the golden-pinned config shared with
		// `cmd/inference -quick`, so quick daemon responses are
		// byte-identical to the committed inference.csv.golden.
		icfg = harness.QuickInferenceConfig()
	}
	icfg.Seed = cfg.Seed
	kinds, err := parseKinds(cfg.Networks, networks.Six())
	if err != nil {
		return nil, err
	}
	icfg.Networks = kinds
	if cfg.Graphs != nil {
		icfg.Graphs = cfg.Graphs
	}
	if cfg.Batches != nil {
		icfg.Batches = cfg.Batches
	}
	if cfg.SeqLens != nil {
		icfg.SeqLens = cfg.SeqLens
	}
	icfg.PacketBytes = cfg.MTU
	points, err := harness.InferenceStudyWith(r, icfg)
	if err != nil {
		return nil, err
	}
	var csv bytes.Buffer
	if err := harness.WriteInferenceCSV(&csv, points); err != nil {
		return nil, err
	}
	return &Result{CSV: csv.Bytes(), Text: harness.RenderInference(points), Value: points}, nil
}
