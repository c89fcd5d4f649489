package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Type is a metric family's kind, named after the Prometheus exposition
// types it renders as.
type Type string

// The supported family types.
const (
	TypeCounter   Type = "counter"
	TypeGauge     Type = "gauge"
	TypeHistogram Type = "histogram"
)

// Registry is a set of named metric families, each holding one child
// per distinct label set. All methods are safe for concurrent use;
// registration is mutex-guarded while the record paths of the returned
// metrics are lock-free atomics.
//
// Registration is get-or-create: asking for the same (name, labels)
// twice returns the same metric, so independent components that publish
// the same family aggregate into it. Asking for the same family name
// with a different Type panics — that is a programming error.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// family is one named metric family and its children.
type family struct {
	name     string
	help     string
	typ      Type
	children map[string]*child // keyed by rendered label string
}

// child is one (label set, value) pair of a family. Exactly one of the
// value fields is set, matching the family type; fn/gfn are the
// read-through forms used for counters and gauges computed on collect.
type child struct {
	labels string // rendered {k="v",...} suffix, "" when unlabeled
	c      *Counter
	g      *Gauge
	h      *Histogram
	cfn    func() uint64
	gfn    func() float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// defaultRegistry is the process-wide registry served by the web UI and
// the dnsobs self-report.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// Counter returns the counter for (name, labels), creating and
// registering it on first use. labels are alternating key, value pairs.
// help is recorded the first time the family is seen.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	var c *Counter
	r.child(name, help, TypeCounter, labels, func(ch *child) {
		if ch.c == nil {
			ch.c = NewCounter()
		}
		c = ch.c
	})
	return c
}

// Gauge returns the gauge for (name, labels), creating and registering
// it on first use.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	var g *Gauge
	r.child(name, help, TypeGauge, labels, func(ch *child) {
		if ch.g == nil {
			ch.g = NewGauge()
		}
		g = ch.g
	})
	return g
}

// Histogram returns the histogram for (name, labels), creating it with
// the given bucket bounds on first use. Later calls for the same child
// return the existing histogram regardless of bounds.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Histogram {
	var h *Histogram
	r.child(name, help, TypeHistogram, labels, func(ch *child) {
		if ch.h == nil {
			ch.h = NewHistogram(bounds)
		}
		h = ch.h
	})
	return h
}

// CounterFunc registers a counter whose value is read from fn at
// collect time — for layers that already keep their own monotone tally
// (store corrupt-skips, chaos injections) so collection adds no cost to
// their hot paths. Re-registering the same (name, labels) replaces fn,
// so a fresh component instance can take over its family slot.
func (r *Registry) CounterFunc(name, help string, fn func() uint64, labels ...string) {
	r.child(name, help, TypeCounter, labels, func(ch *child) {
		ch.c = nil
		ch.cfn = fn
	})
}

// GaugeFunc registers a gauge read from fn at collect time (queue
// depths, cache sizes). Re-registering replaces fn.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	r.child(name, help, TypeGauge, labels, func(ch *child) {
		ch.g = nil
		ch.gfn = fn
	})
}

// Sum returns the sum of every child of the named family (counter and
// gauge families only), or 0 when the family does not exist. It is how
// consumers read a family total without enumerating label sets — e.g.
// transactions across engines, top-k occupancy across aggregations.
func (r *Registry) Sum(name string) float64 {
	var total float64
	for _, ch := range r.familyChildren(name) {
		total += ch.scalar()
	}
	return total
}

// SumCounter is Sum for counter families, kept in uint64 end to end:
// counters are uint64 internally, and totalling through float64 loses
// precision above 2^53 — reachable on a long-lived 200 k tx/s feed —
// which could make a reported total non-monotone. A histogram child
// contributes its observation count (its _count series, a counter);
// gauge children contribute nothing.
func (r *Registry) SumCounter(name string) uint64 {
	var total uint64
	for _, ch := range r.familyChildren(name) {
		switch {
		case ch.c != nil:
			total += ch.c.Value()
		case ch.cfn != nil:
			total += ch.cfn()
		case ch.h != nil:
			total += ch.h.count.Load()
		}
	}
	return total
}

// scalar reads a counter or gauge child's current value.
func (ch *child) scalar() float64 {
	switch {
	case ch.c != nil:
		return float64(ch.c.Value())
	case ch.cfn != nil:
		return float64(ch.cfn())
	case ch.g != nil:
		return ch.g.Value()
	case ch.gfn != nil:
		return ch.gfn()
	}
	return 0
}

// child looks up or creates the (family, label set) slot and runs init
// on it while the write lock is still held, so the slot is fully
// initialized exactly once and two racing registrations of the same
// (name, labels) can never each build a distinct metric.
//
// A nil registry registers nowhere: init runs on a slot nobody will
// collect, so Counter, Gauge and Histogram hand out standalone
// instruments and a component writes its metric list once.
func (r *Registry) child(name, help string, typ Type, labels []string, init func(*child)) {
	if r == nil {
		init(new(child))
		return
	}
	checkName(name)
	key := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, children: map[string]*child{}}
		r.families[name] = f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("metrics: family %q registered as %s, requested as %s", name, f.typ, typ))
	}
	if f.help == "" {
		f.help = help
	}
	ch := f.children[key]
	if ch == nil {
		ch = &child{labels: key}
		f.children[key] = ch
	}
	init(ch)
}

// checkName enforces the Prometheus metric-name charset.
func checkName(name string) {
	if name == "" {
		panic("metrics: empty metric name")
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			panic(fmt.Sprintf("metrics: invalid metric name %q", name))
		}
	}
}

// renderLabels turns alternating key, value pairs into the canonical
// {k="v",...} suffix (label values escaped), which doubles as the child
// map key. Keys are rendered in the given order — callers pass a fixed
// order per family, which keeps exposition deterministic.
func renderLabels(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic("metrics: labels must be alternating key, value pairs")
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i < len(labels); i += 2 {
		checkLabelName(labels[i])
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteString(`="`)
		escapeLabelValue(&b, labels[i+1])
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// checkLabelName enforces the Prometheus label-name charset.
func checkLabelName(name string) {
	if name == "" {
		panic("metrics: empty label name")
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			panic(fmt.Sprintf("metrics: invalid label name %q", name))
		}
	}
}

// escapeLabelValue writes v with the exposition-format escapes.
func escapeLabelValue(b *strings.Builder, v string) {
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
}

// famView is an immutable copy of one family taken under the registry
// lock, so collection can render from it with no lock held.
type famView struct {
	name     string
	help     string
	typ      Type
	children []child
}

// snapshot copies every family and child value under the read lock,
// sorted by family name then label set for deterministic exposition.
// Registration mutates the maps and child fields under the write lock,
// so rendering from the copies is race-free; evaluating cfn/gfn
// callbacks happens after the lock is released, so a callback that
// itself touches the registry cannot deadlock collection.
func (r *Registry) snapshot() []famView {
	r.mu.RLock()
	fams := make([]famView, 0, len(r.families))
	for _, f := range r.families {
		fv := famView{name: f.name, help: f.help, typ: f.typ,
			children: make([]child, 0, len(f.children))}
		for _, ch := range f.children {
			fv.children = append(fv.children, *ch)
		}
		fams = append(fams, fv)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	for _, fv := range fams {
		sort.Slice(fv.children, func(i, j int) bool { return fv.children[i].labels < fv.children[j].labels })
	}
	return fams
}

// familyChildren copies the named family's children under the read
// lock; Sum and SumCounter evaluate the copies lock-free.
func (r *Registry) familyChildren(name string) []child {
	r.mu.RLock()
	defer r.mu.RUnlock()
	f := r.families[name]
	if f == nil {
		return nil
	}
	out := make([]child, 0, len(f.children))
	for _, ch := range f.children {
		out = append(out, *ch)
	}
	return out
}
