package sie

import (
	"net/netip"
	"testing"
)

func TestSharedCopyFromDeepCopiesSlices(t *testing.T) {
	src := &Summary{
		QName:      "a.example.com.",
		V4Addrs:    []netip.Addr{netip.MustParseAddr("192.0.2.1")},
		V4Strs:     []string{"192.0.2.1"},
		AnswerTTLs: []uint32{300},
		NSNames:    []string{"ns1.example.com."},
	}
	s := new(Shared)
	s.CopyFrom(src)
	// Mutating the source must not affect the copy.
	src.V4Addrs[0] = netip.MustParseAddr("203.0.113.9")
	src.AnswerTTLs[0] = 1
	src.NSNames[0] = "evil."
	if s.V4Addrs[0] != netip.MustParseAddr("192.0.2.1") {
		t.Error("V4Addrs aliased")
	}
	if s.AnswerTTLs[0] != 300 {
		t.Error("AnswerTTLs aliased")
	}
	if s.NSNames[0] != "ns1.example.com." {
		t.Error("NSNames aliased")
	}
}

func TestSharedCopyReusesCapacity(t *testing.T) {
	src := &Summary{
		AnswerTTLs: []uint32{1, 2, 3, 4},
		NSTTLs:     []uint32{5},
		NSNames:    []string{"a.", "b."},
	}
	s := new(Shared)
	s.CopyFrom(src)
	first := &s.AnswerTTLs[0]
	s.CopyFrom(src)
	if &s.AnswerTTLs[0] != first {
		t.Error("warm CopyFrom reallocated AnswerTTLs")
	}
	if allocs := testing.AllocsPerRun(10, func() { s.CopyFrom(src) }); allocs != 0 {
		t.Errorf("warm CopyFrom allocates %.0f objects", allocs)
	}
}

func TestSummaryTextMemoFallback(t *testing.T) {
	sum := &Summary{
		Resolver:   netip.MustParseAddr("192.0.2.7"),
		Nameserver: netip.MustParseAddr("2001:db8::1"),
		V4Addrs:    []netip.Addr{netip.MustParseAddr("198.51.100.3")},
		V6Addrs:    []netip.Addr{netip.MustParseAddr("2001:db8::2")},
	}
	// No memo: accessors format on demand.
	if sum.ResolverText() != "192.0.2.7" || sum.NameserverText() != "2001:db8::1" {
		t.Errorf("fallback text: %q %q", sum.ResolverText(), sum.NameserverText())
	}
	if sum.V4Text(0) != "198.51.100.3" || sum.V6Text(0) != "2001:db8::2" {
		t.Errorf("fallback addr text: %q %q", sum.V4Text(0), sum.V6Text(0))
	}
	// Memoized forms win.
	sum.ResolverStr = "memo-resolver"
	sum.V4Strs = []string{"memo-v4"}
	if sum.ResolverText() != "memo-resolver" || sum.V4Text(0) != "memo-v4" {
		t.Errorf("memo ignored: %q %q", sum.ResolverText(), sum.V4Text(0))
	}
}
