package publicsuffix

import (
	"strings"

	"dnsobservatory/internal/dnswire"
)

// List is a compiled suffix list. Create one with NewList or use the
// package-level Default. Rules are stored in canonical form (trailing
// dot) so lookups can slice suffixes straight out of a canonical name
// without allocating.
type List struct {
	rules      map[string]bool // suffix -> true
	wildcards  map[string]bool // parent of "*.parent" rules
	exceptions map[string]bool // name carved out of a wildcard
}

// NewList compiles rules in public-suffix-list format: one rule per
// entry, "*." prefix for wildcards, "!" prefix for exceptions. Rules are
// given without trailing dots, as in the upstream file.
func NewList(rules []string) *List {
	l := &List{
		rules:      make(map[string]bool, len(rules)),
		wildcards:  make(map[string]bool),
		exceptions: make(map[string]bool),
	}
	for _, r := range rules {
		r = strings.ToLower(strings.TrimSpace(r))
		if r == "" || strings.HasPrefix(r, "//") {
			continue
		}
		switch {
		case strings.HasPrefix(r, "!"):
			l.exceptions[r[1:]+"."] = true
		case strings.HasPrefix(r, "*."):
			l.wildcards[r[2:]+"."] = true
		default:
			l.rules[r+"."] = true
		}
	}
	return l
}

// etldStart returns the byte offset where name's eTLD begins. name must
// be canonical and not ".". Every candidate suffix is a slice of name,
// so the scan is allocation-free.
func (l *List) etldStart(name string) int {
	off := 0
	for {
		cand := name[off:]
		// Start of the next shorter suffix; len(name) when cand is the
		// bare TLD (its only dot is the trailing one).
		next := off + strings.IndexByte(cand, '.') + 1
		last := next == len(name)
		if l.exceptions[cand] {
			if last {
				return len(name) - 1 // degenerate "!tld" rule: eTLD is the root
			}
			return next // exception: the suffix is everything after this label
		}
		if l.rules[cand] {
			return off
		}
		// "*.parent": any single label directly under parent is a suffix.
		if !last && l.wildcards[name[next:]] {
			return off
		}
		if last {
			return off // implicit rule: the bare TLD
		}
		off = next
	}
}

// Split returns both effective suffixes of name from one walk of the
// list: the eTLD in canonical form ("co.uk."), and the eSLD (eTLD plus
// one label, "bbc.co.uk."), which is the eTLD itself when the name is a
// bare public suffix. Both are "." for the root. A name that is itself a
// public suffix is its own eTLD; unlisted TLDs fall back to the last
// label, per the PSL's implicit "*" rule.
func (l *List) Split(name string) (etld, esld string) {
	name = dnswire.Canonical(name)
	if name == "." {
		return ".", "."
	}
	off := l.etldStart(name)
	if off == 0 {
		return name, name // the name is itself a public suffix
	}
	// Extend one label to the left; still a slice of name.
	p := off - 1 // the dot ending the previous label
	for p > 0 && name[p-1] != '.' {
		p--
	}
	return name[off:], name[p:]
}

// ETLD returns the effective TLD of name (see Split).
func (l *List) ETLD(name string) string {
	etld, _ := l.Split(name)
	return etld
}

// ESLD returns the effective SLD of name (see Split).
func (l *List) ESLD(name string) string {
	_, esld := l.Split(name)
	return esld
}

// IsSuffix reports whether name is exactly a public suffix.
func (l *List) IsSuffix(name string) bool {
	name = dnswire.Canonical(name)
	return name != "." && l.ETLD(name) == name
}

// MultiLabelSuffixes returns the listed suffixes that contain more than
// one label (e.g. co.uk), canonical form. The qmin analysis (§3.6)
// whitelists TLD servers hosting such zones.
func (l *List) MultiLabelSuffixes() []string {
	var out []string
	for r := range l.rules {
		// Rules carry a trailing dot; multi-label means a dot before it.
		if strings.Contains(r[:len(r)-1], ".") {
			out = append(out, r)
		}
	}
	return out
}

// defaultRules is a compact, ICANN-style rule set: the generic TLDs and
// ccTLDs the simulator's domain universe uses, including the multi-label
// and wildcard cases the paper calls out (co.uk, org.il, net.me, *.ck).
var defaultRules = []string{
	// Generic TLDs.
	"com", "net", "org", "info", "biz", "edu", "gov", "mil", "int",
	"arpa", "in-addr.arpa", "ip6.arpa",
	// New gTLDs.
	"top", "xyz", "online", "site", "shop", "app", "dev", "cloud", "io",
	// ccTLDs, flat.
	"de", "nl", "fr", "it", "pl", "ru", "cn", "jp", "kr", "in", "ca",
	"ch", "se", "no", "fi", "es", "pt", "cz", "at", "be", "dk", "ie",
	"gr", "hu", "ro", "sk", "si", "hr", "bg", "lt", "lv", "ee", "us",
	"mx", "ar", "cl", "co", "pe", "ve", "ec", "by", "ua", "kz", "tr",
	"sa", "ae", "ir", "eg", "ma", "ng", "ke", "za", "tz", "gh", "et",
	"vn", "th", "my", "sg", "id", "ph", "tw", "hk", "mo", "bd", "pk",
	"lk", "np", "mm", "kh", "la", "mn", "ws", "to", "tv", "cc", "me",
	// Multi-label ccTLD registrations.
	"uk", "co.uk", "org.uk", "gov.uk", "ac.uk", "net.uk",
	"au", "com.au", "net.au", "org.au", "edu.au", "gov.au",
	"nz", "co.nz", "net.nz", "org.nz", "govt.nz",
	"br", "com.br", "net.br", "org.br", "gov.br",
	"il", "co.il", "org.il", "ac.il", "gov.il",
	"net.me", // .me also hosts net.me (paper §3.6)
	"ke.co",  // unused; keeps parser honest about odd rules
	"co.ke", "or.ke", "go.ke",
	"jp.net",
	"co.jp", "ne.jp", "or.jp", "ac.jp", "go.jp",
	"com.cn", "net.cn", "org.cn", "gov.cn", "edu.cn",
	"com.tr", "net.tr", "org.tr",
	"com.mx", "org.mx",
	"com.ar", "com.sg", "com.hk", "com.tw", "com.my",
	"in.th", "co.th", "ac.th", "go.th",
	"co.za", "org.za", "web.za",
	"co.in", "net.in", "org.in", "ac.in", "gov.in",
	// Wildcard and exception, exercising full PSL semantics.
	"ck", "*.ck", "!www.ck",
	"bn", "*.bn",
}

// Default is the embedded list used throughout the Observatory.
var Default = NewList(defaultRules)

// ETLD extracts the effective TLD using the Default list.
func ETLD(name string) string { return Default.ETLD(name) }

// ESLD extracts the effective SLD using the Default list.
func ESLD(name string) string { return Default.ESLD(name) }
