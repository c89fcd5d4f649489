package routing

import (
	"net/netip"
	"testing"
)

func mustPrefix(s string) netip.Prefix { return netip.MustParsePrefix(s) }

func TestLookupLongestPrefix(t *testing.T) {
	var tb Table
	tb.Add(mustPrefix("10.0.0.0/8"), 100)
	tb.Add(mustPrefix("10.1.0.0/16"), 200)
	tb.Add(mustPrefix("10.1.2.0/24"), 300)

	cases := []struct {
		addr string
		asn  uint32
		ok   bool
	}{
		{"10.9.9.9", 100, true},
		{"10.1.9.9", 200, true},
		{"10.1.2.9", 300, true},
		{"11.0.0.1", 0, false},
	}
	for _, c := range cases {
		asn, ok := tb.Lookup(netip.MustParseAddr(c.addr))
		if asn != c.asn || ok != c.ok {
			t.Errorf("Lookup(%s) = %d,%v want %d,%v", c.addr, asn, ok, c.asn, c.ok)
		}
	}
	if tb.Len() != 3 {
		t.Errorf("Len = %d", tb.Len())
	}
}

func TestLookupIPv6(t *testing.T) {
	var tb Table
	tb.Add(mustPrefix("2001:db8::/32"), 64500)
	tb.Add(mustPrefix("2001:db8:1::/48"), 64501)
	if asn, ok := tb.Lookup(netip.MustParseAddr("2001:db8:1::53")); !ok || asn != 64501 {
		t.Errorf("v6 more specific: %d %v", asn, ok)
	}
	if asn, ok := tb.Lookup(netip.MustParseAddr("2001:db8:ffff::1")); !ok || asn != 64500 {
		t.Errorf("v6 covering: %d %v", asn, ok)
	}
	if _, ok := tb.Lookup(netip.MustParseAddr("2620::1")); ok {
		t.Error("v6 miss matched")
	}
	// v4 and v6 tries are independent.
	if _, ok := tb.Lookup(netip.MustParseAddr("32.1.13.184")); ok {
		t.Error("v4 address matched v6 prefix")
	}
}

func TestAddOverwrites(t *testing.T) {
	var tb Table
	tb.Add(mustPrefix("192.0.2.0/24"), 1)
	tb.Add(mustPrefix("192.0.2.0/24"), 2)
	if asn, _ := tb.Lookup(netip.MustParseAddr("192.0.2.1")); asn != 2 {
		t.Errorf("asn = %d", asn)
	}
	if tb.Len() != 1 {
		t.Errorf("Len = %d", tb.Len())
	}
}

func TestASName(t *testing.T) {
	var tb Table
	tb.SetASName(16509, "AMAZON-02 - Amazon.com, Inc., US")
	if got := tb.ASName(16509); got != "AMAZON-02 - Amazon.com, Inc., US" {
		t.Errorf("ASName = %q", got)
	}
	if got := tb.ASName(99); got != "AS99" {
		t.Errorf("unknown ASName = %q", got)
	}
}

func TestOrgName(t *testing.T) {
	cases := []struct{ in, want string }{
		{"AMAZON-02 - Amazon.com, Inc., US", "AMAZON"},
		{"AMAZON-AES - Amazon.com, Inc., US", "AMAZON-AES"},
		{"GOOGLE - Google LLC, US", "GOOGLE"},
		{"CLOUDFLARENET - Cloudflare, Inc., US", "CLOUDFLARENET"},
		{"VERISIGN-AS - VeriSign Infrastructure, US", "VERISIGN"},
		{"AKAMAI-01, US", "AKAMAI"},
		{"lowercase-7 - Some Org, PL", "LOWERCASE"},
		{"PLAIN", "PLAIN"},
		{"", ""},
	}
	for _, c := range cases {
		if got := OrgName(c.in); got != c.want {
			t.Errorf("OrgName(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestLookupEmptyTable(t *testing.T) {
	var tb Table
	if _, ok := tb.Lookup(netip.MustParseAddr("1.2.3.4")); ok {
		t.Error("empty table matched")
	}
}

func TestDefaultRoute(t *testing.T) {
	var tb Table
	tb.Add(mustPrefix("0.0.0.0/0"), 7)
	if asn, ok := tb.Lookup(netip.MustParseAddr("203.0.113.9")); !ok || asn != 7 {
		t.Errorf("default route: %d %v", asn, ok)
	}
}
