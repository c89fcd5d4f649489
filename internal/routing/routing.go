package routing

import (
	"fmt"
	"net/netip"
	"strings"
)

// Table is a routing table with AS metadata. The zero value is empty and
// usable. Table is not safe for concurrent mutation.
type Table struct {
	v4, v6 *node
	names  map[uint32]string // ASN -> registered AS name
	count  int
}

type node struct {
	children [2]*node
	asn      uint32
	valid    bool
}

// Add announces prefix from asn. More-specific announcements shadow less
// specific ones, as in BGP.
func (t *Table) Add(prefix netip.Prefix, asn uint32) {
	prefix = prefix.Masked()
	root := &t.v4
	if prefix.Addr().Is6() && !prefix.Addr().Is4In6() {
		root = &t.v6
	}
	if *root == nil {
		*root = &node{}
	}
	n := *root
	addr := prefix.Addr().Unmap()
	b := addr.AsSlice()
	for i := 0; i < prefix.Bits(); i++ {
		bit := b[i/8] >> (7 - i%8) & 1
		if n.children[bit] == nil {
			n.children[bit] = &node{}
		}
		n = n.children[bit]
	}
	if !n.valid {
		t.count++
	}
	n.asn = asn
	n.valid = true
}

// SetASName registers the AS-names-dataset entry for asn, e.g.
// "AMAZON-02 - Amazon.com, Inc., US".
func (t *Table) SetASName(asn uint32, name string) {
	if t.names == nil {
		t.names = make(map[uint32]string)
	}
	t.names[asn] = name
}

// Lookup returns the origin ASN of the longest matching prefix; ok is
// false when no announcement covers addr.
func (t *Table) Lookup(addr netip.Addr) (asn uint32, ok bool) {
	addr = addr.Unmap()
	root := t.v4
	if addr.Is6() {
		root = t.v6
	}
	if root == nil {
		return 0, false
	}
	b := addr.AsSlice()
	n := root
	if n.valid {
		asn, ok = n.asn, true
	}
	for i := 0; i < len(b)*8; i++ {
		bit := b[i/8] >> (7 - i%8) & 1
		n = n.children[bit]
		if n == nil {
			break
		}
		if n.valid {
			asn, ok = n.asn, true
		}
	}
	return asn, ok
}

// ASName returns the registered AS name for asn, or "AS<n>" when unknown.
func (t *Table) ASName(asn uint32) string {
	if name, ok := t.names[asn]; ok {
		return name
	}
	return fmt.Sprintf("AS%d", asn)
}

// Len returns the number of announced prefixes.
func (t *Table) Len() int { return t.count }

// OrgName extracts the organization from an AS-names-dataset string.
// The dataset format is "HANDLE - Long Org Name, CC"; the paper
// aggregates nameservers "based on the organization name extracted from
// each AS Name string". We take the handle, strip trailing numeric or
// regional qualifiers ("AMAZON-02" -> "AMAZON", "GOOGLE-CLOUD" stays
// distinct from "GOOGLE" only by its full qualifier list, so only purely
// numeric suffixes are stripped) and upper-case the result.
func OrgName(asName string) string {
	h := asName
	if i := strings.Index(h, " - "); i >= 0 {
		h = h[:i]
	}
	if i := strings.IndexByte(h, ','); i >= 0 {
		h = h[:i]
	}
	h = strings.ToUpper(strings.TrimSpace(h))
	// Strip trailing "-NN" or "-AS" qualifiers: AMAZON-02, VERISIGN-AS.
	for {
		i := strings.LastIndexByte(h, '-')
		if i <= 0 {
			break
		}
		suffix := h[i+1:]
		if suffix == "" || suffix == "AS" || isDigits(suffix) {
			h = h[:i]
			continue
		}
		break
	}
	return h
}

func isDigits(s string) bool {
	if s == "" {
		return false
	}
	for _, c := range s {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}
