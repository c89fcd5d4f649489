package experiments

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"text/tabwriter"

	"dnsobservatory/internal/bloom"
	"dnsobservatory/internal/hll"
	"dnsobservatory/internal/spacesaving"
)

// Ablate quantifies the accuracy impact of the design choices DESIGN.md
// calls out: the Bloom admission guard in front of Space-Saving
// eviction, decayed-rate versus all-time-count ranking, and HLL
// precision. It prints accuracy against exact ground truth, not
// throughput (the bench harness covers speed).
func (c *Context) Ablate(w io.Writer) error {
	rng := rand.New(rand.NewSource(c.opts.Seed + 500))
	c.ablateAdmission(w, rng)
	c.ablateDecay(w, rng)
	c.ablateHLL(w, rng)
	return nil
}

// ablateAdmission compares Space-Saving top-k precision with and
// without the Bloom guard on a stream where half the volume is one-off
// keys — the Observatory's reality (ephemeral FQDNs, DGA names).
func (c *Context) ablateAdmission(w io.Writer, rng *rand.Rand) {
	const (
		capacity = 500
		topK     = 100
		events   = 400_000
	)
	zipf := rand.NewZipf(rng, 1.1, 1, 50_000)
	keys := make([]string, events)
	for i := range keys {
		if rng.Float64() < 0.5 {
			keys[i] = fmt.Sprintf("stable%05d", zipf.Uint64())
		} else {
			keys[i] = fmt.Sprintf("oneoff%09d", rng.Int31())
		}
	}
	truth := map[string]int{}
	for _, k := range keys {
		truth[k]++
	}
	trueTop := topNKeys(truth, topK)

	precision := func(adm *bloom.Filter) float64 {
		cache := spacesaving.New(capacity, 60, adm)
		for i, k := range keys {
			cache.Observe(k, float64(i)/1000)
		}
		got := map[string]bool{}
		for _, e := range cache.Top(topK) {
			got[e.Key] = true
		}
		hits := 0
		for _, k := range trueTop {
			if got[k] {
				hits++
			}
		}
		return float64(hits) / float64(len(trueTop))
	}

	pGuarded := precision(bloom.New(1<<21, 0.01, uint64(c.opts.Seed)))
	pBare := precision(nil)
	fmt.Fprintln(w, "Ablation 1: Bloom admission guard for Space-Saving eviction (§2.2)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  variant\tprecision@100 vs exact counts")
	fmt.Fprintf(tw, "  with admission filter\t%.2f\n", pGuarded)
	fmt.Fprintf(tw, "  without\t%.2f\n", pBare)
	tw.Flush()
	fmt.Fprintln(w)
}

// ablateDecay compares decayed-rate ranking against all-time counts
// after a mid-stream popularity shift: the paper tracks "the rate of
// transactions per second" precisely so the top list follows current
// traffic.
func (c *Context) ablateDecay(w io.Writer, rng *rand.Rand) {
	const events = 200_000
	cache := spacesaving.New(2000, 30, nil)
	var nowKeys []string
	for i := 0; i < events; i++ {
		var k string
		if i < events/2 {
			k = fmt.Sprintf("old%04d", rng.Intn(500))
		} else {
			k = fmt.Sprintf("new%04d", rng.Intn(500))
		}
		cache.Observe(k, float64(i)/1000) // 200 s of stream
	}
	_ = nowKeys
	top := cache.Top(0)
	const streamEnd = float64(events) / 1000

	inTopBy := func(less func(a, b *spacesaving.Entry) bool) (newShare float64) {
		sorted := append([]*spacesaving.Entry(nil), top...)
		sort.Slice(sorted, func(i, j int) bool { return less(sorted[i], sorted[j]) })
		n := 0
		for _, e := range sorted[:100] {
			if e.Key[:3] == "new" {
				n++
			}
		}
		return float64(n) / 100
	}
	byCount := inTopBy(func(a, b *spacesaving.Entry) bool { return a.Count > b.Count })
	byRate := inTopBy(func(a, b *spacesaving.Entry) bool {
		return cache.RateAt(a, streamEnd) > cache.RateAt(b, streamEnd)
	})

	fmt.Fprintln(w, "Ablation 2: decayed-rate vs. all-time-count ranking after a popularity shift")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  ranking\tshare of currently-hot objects in top-100")
	fmt.Fprintf(tw, "  by decayed rate\t%.2f\n", byRate)
	fmt.Fprintf(tw, "  by all-time count\t%.2f\n", byCount)
	tw.Flush()
	fmt.Fprintln(w)
}

// ablateHLL reports observed relative error per precision against exact
// set cardinality — the memory/accuracy trade of the §2.3 estimators.
func (c *Context) ablateHLL(w io.Writer, rng *rand.Rand) {
	const n = 200_000
	fmt.Fprintln(w, "Ablation 3: HyperLogLog precision vs. exact cardinality")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  precision\tmemory\testimate\trelative error")
	for _, p := range []uint8{8, 10, 12, 14} {
		s := hll.MustNew(p)
		for i := 0; i < n; i++ {
			s.Add(fmt.Sprintf("card-%d-%d", p, i))
		}
		est := float64(s.Count())
		relErr := math.Abs(est-n) / n
		fmt.Fprintf(tw, "  p=%d\t%d B\t%.0f\t%.4f\n", p, 1<<p, est, relErr)
	}
	tw.Flush()
	_ = rng
}

func topNKeys(counts map[string]int, n int) []string {
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if counts[keys[i]] != counts[keys[j]] {
			return counts[keys[i]] > counts[keys[j]]
		}
		return keys[i] < keys[j]
	})
	if n < len(keys) {
		keys = keys[:n]
	}
	return keys
}
