package exp

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"

	"blemesh/internal/sim"
)

// Options tune an experiment run.
type Options struct {
	// Seed makes the run reproducible; runs r of a repeated experiment
	// use Seed+r.
	Seed int64
	// Scale multiplies the paper's experiment durations (1.0 = the full
	// 1h/24h runs; benches use small fractions). 0 means 1.0.
	Scale float64
	// Runs overrides the repetition count (paper: 5×; default here 1).
	Runs int
	// Workers caps the parallel runner's worker count for repeated and
	// swept experiments (0 = GOMAXPROCS). Results are byte-identical
	// regardless of this setting.
	Workers int
	// Engine selects the sim event-queue engine (default timer wheel;
	// the heap reference engine exists for differential testing).
	Engine sim.Engine
	// Shards selects the sharded conservative scheduler with this many
	// worker lanes (0 = serial engine). Results are byte-identical for
	// every value ≥ 1, and match 0 only on single-site topologies; see
	// NetworkConfig.Shards.
	Shards int
}

func (o *Options) defaults() {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Runs <= 0 {
		o.Runs = 1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// Report is an experiment's rendered outcome plus its key numbers.
type Report struct {
	ID     string
	Title  string
	Lines  []string
	Values map[string]float64
}

func newReport(id, title string) *Report {
	return &Report{ID: id, Title: title, Values: make(map[string]float64)}
}

func (r *Report) addf(format string, args ...any) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

func (r *Report) addBlock(s string) {
	r.Lines = append(r.Lines, strings.TrimRight(s, "\n"))
}

func (r *Report) set(key string, v float64) { r.Values[key] = v }

// setReplicated records the across-run mean under key and, when there are
// at least two replicates, the 95% confidence half-width under key+"_ci95".
func (r *Report) setReplicated(key string, runs []float64) {
	mean, half := MeanCI95(runs)
	r.set(key, mean)
	if len(runs) > 1 {
		r.set(key+"_ci95", half)
	}
}

// tCrit95 holds two-sided 95% Student-t critical values for 1..30 degrees
// of freedom; beyond that the normal approximation (1.96) is used.
var tCrit95 = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// MeanCI95 returns the sample mean and the half-width of the 95% Student-t
// confidence interval of the mean. With fewer than two samples the
// half-width is 0 (and the mean NaN when there are none). Summation runs in
// slice order, so a fixed replicate order yields bit-identical results.
func MeanCI95(vals []float64) (mean, half float64) {
	n := len(vals)
	if n == 0 {
		return math.NaN(), 0
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	mean = sum / float64(n)
	if n == 1 {
		return mean, 0
	}
	ss := 0.0
	for _, v := range vals {
		d := v - mean
		ss += d * d
	}
	sd := math.Sqrt(ss / float64(n-1))
	t := 1.96
	if df := n - 1; df <= len(tCrit95) {
		t = tCrit95[df-1]
	}
	return mean, t * sd / math.Sqrt(float64(n))
}

// Value returns a recorded key number (NaN-free access for tests).
func (r *Report) Value(key string) float64 { return r.Values[key] }

// String renders the report.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s — %s ==\n", r.ID, r.Title)
	for _, l := range r.Lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	return b.String()
}

// GCFooter renders a one-line garbage-collector summary of the process so
// far: collection count, cumulative stop-the-world pause, and the cumulative
// allocation count and volume (runtime.ReadMemStats). The CLI prints it
// below each report rather than the report recording it: heap behaviour
// depends on the host runtime, not on the simulation, and folding it into
// Report would break byte-identical report comparisons across machines.
func GCFooter() string {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return fmt.Sprintf("-- gc: %d cycles, %.3fms total pause; %d allocs, %.1f MiB allocated --",
		ms.NumGC, float64(ms.PauseTotalNs)/1e6, ms.Mallocs, float64(ms.TotalAlloc)/(1<<20))
}

// ValuesTable renders the key numbers sorted by name.
func (r *Report) ValuesTable() string {
	keys := make([]string, 0, len(r.Values))
	for k := range r.Values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%-48s %12.6g\n", k, r.Values[k])
	}
	return b.String()
}

// Experiment is one reproducible artifact of the paper.
type Experiment struct {
	ID     string
	Title  string
	Figure string // which table/figure of the paper it regenerates
	Run    func(Options) *Report
}

// Registry lists every experiment, in paper order.
var Registry []Experiment

func register(e Experiment) { Registry = append(Registry, e) }

// Find returns the experiment with the given ID.
func Find(id string) (Experiment, bool) {
	for _, e := range Registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
