package dnswire

import (
	"errors"
	"strings"
)

// Errors returned by the name codec.
var (
	ErrNameTooLong     = errors.New("dnswire: name exceeds 255 octets")
	ErrLabelTooLong    = errors.New("dnswire: label exceeds 63 octets")
	ErrEmptyLabel      = errors.New("dnswire: empty label inside name")
	ErrBadPointer      = errors.New("dnswire: bad compression pointer")
	ErrPointerLoop     = errors.New("dnswire: compression pointer loop")
	ErrNameTruncated   = errors.New("dnswire: name truncated")
	ErrBadLabelType    = errors.New("dnswire: unsupported label type")
	ErrTooManyPointers = errors.New("dnswire: too many compression pointers")
)

const (
	maxNameLen  = 255
	maxLabelLen = 63
	// maxPointers bounds pointer chains; a legitimate name has at most
	// 127 labels, so 128 pointers always indicates a loop or abuse.
	maxPointers = 128
)

// AppendName appends the wire encoding of name to dst. Compression
// pointers into earlier parts of the message are taken from cmap, which
// maps a fully-qualified suffix (e.g. "example.com.") to its offset in
// the message; new suffixes encoded at reachable offsets are added to
// cmap. Pass a nil cmap to disable compression.
//
// name is in presentation form; a trailing dot is optional. The root is
// "" or ".".
func AppendName(dst []byte, name string, cmap map[string]int) ([]byte, error) {
	name = Canonical(name)
	if len(name) > maxNameLen {
		return dst, ErrNameTooLong
	}
	// Walk suffix by suffix so every tail can be compressed independently.
	// The canonical form ends in "."; after the last label the remainder
	// is empty.
	for name != "." && name != "" {
		if cmap != nil {
			if off, ok := cmap[name]; ok {
				return append(dst, 0xc0|byte(off>>8), byte(off)), nil
			}
		}
		dot := strings.IndexByte(name, '.')
		label := name[:dot]
		if len(label) > maxLabelLen {
			return dst, ErrLabelTooLong
		}
		if label == "" {
			return dst, ErrEmptyLabel
		}
		if cmap != nil && len(dst) <= 0x3fff {
			cmap[name] = len(dst)
		}
		dst = append(dst, byte(len(label)))
		dst = append(dst, label...)
		name = name[dot+1:]
	}
	return append(dst, 0), nil
}

// ReadName decodes a (possibly compressed) name starting at msg[off].
// It returns the canonical presentation form (lower-case, trailing dot)
// and the offset just past the name in the original byte stream. The
// name is assembled on the stack, so the returned string is the only
// allocation.
func ReadName(msg []byte, off int) (string, int, error) {
	var buf [maxNameLen]byte
	name, end, err := ReadNameTo(&buf, msg, off)
	if err != nil {
		return "", 0, err
	}
	return string(name), end, nil
}

// ReadNameTo is ReadName into the caller's buffer: it returns the
// canonical presentation form as a slice of dst, valid until dst is
// written again, so the caller decides whether it becomes a string.
func ReadNameTo(dst *[255]byte, msg []byte, off int) ([]byte, int, error) {
	n, end, err := walkName(msg, off, dst)
	if err != nil {
		return nil, 0, err
	}
	if n == 0 {
		dst[0] = '.'
		n = 1
	}
	return dst[:n], end, nil
}

// walkName validates the (possibly compressed) name at msg[off] and
// returns its presentation length (0 for the root) and the offset just
// past it in the top-level stream. With a non-nil buf the lower-cased
// presentation form is written there; labels that would overflow it are
// only counted, since such a name fails the length check at its
// terminator anyway.
func walkName(msg []byte, off int, buf *[maxNameLen]byte) (n, end int, err error) {
	ptrBudget := maxPointers
	end = -1 // offset after the name in the top-level stream
	for {
		if off >= len(msg) {
			return 0, 0, ErrNameTruncated
		}
		b := msg[off]
		switch {
		case b == 0:
			if end < 0 {
				end = off + 1
			}
			if n > maxNameLen {
				return 0, 0, ErrNameTooLong
			}
			return n, end, nil
		case b&0xc0 == 0xc0:
			if off+1 >= len(msg) {
				return 0, 0, ErrNameTruncated
			}
			if end < 0 {
				end = off + 2
			}
			ptr := int(b&0x3f)<<8 | int(msg[off+1])
			if ptr >= off {
				// Forward (or self) pointers are invalid: compression
				// may only reference earlier data (RFC 1035 §4.1.4).
				return 0, 0, ErrBadPointer
			}
			ptrBudget--
			if ptrBudget <= 0 {
				return 0, 0, ErrTooManyPointers
			}
			off = ptr
		case b&0xc0 != 0:
			return 0, 0, ErrBadLabelType
		default:
			l := int(b)
			if off+1+l > len(msg) {
				return 0, 0, ErrNameTruncated
			}
			if buf != nil && n+l+1 <= maxNameLen {
				for i, c := range msg[off+1 : off+1+l] {
					if c >= 'A' && c <= 'Z' {
						c += 'a' - 'A'
					}
					buf[n+i] = c
				}
				buf[n+l] = '.'
			}
			n += l + 1
			off += 1 + l
		}
	}
}

// Canonical lower-cases name and guarantees a single trailing dot; the
// root name canonicalizes to ".".
//
// Lower-casing is byte-wise ASCII, matching ReadName: DNS names are
// byte strings, and strings.ToLower would replace non-UTF-8 bytes
// (legal in wire names) with U+FFFD.
func Canonical(name string) string {
	name = asciiLower(name)
	if name == "" || name == "." {
		return "."
	}
	if name[len(name)-1] != '.' {
		name += "."
	}
	return name
}

// asciiLower lower-cases A–Z only, allocating just when needed.
func asciiLower(s string) string {
	i := 0
	for ; i < len(s); i++ {
		if c := s[i]; c >= 'A' && c <= 'Z' {
			break
		}
	}
	if i == len(s) {
		return s
	}
	b := []byte(s)
	for ; i < len(b); i++ {
		if c := b[i]; c >= 'A' && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
	return string(b)
}

// CountLabels returns the number of labels in a canonical or
// presentation-form name; the root has zero. This is the paper's
// "qdots" measure of QNAME depth.
func CountLabels(name string) int {
	name = Canonical(name)
	if name == "." {
		return 0
	}
	return strings.Count(name, ".")
}

// LastLabels returns the last n labels of name joined in canonical form,
// or the whole name if it has fewer than n labels. LastLabels("www.bbc.co.uk.", 2)
// is "co.uk.".
func LastLabels(name string, n int) string {
	name = Canonical(name)
	if name == "." || n <= 0 {
		return "."
	}
	// The result is a suffix of the canonical name: walk back over n
	// label boundaries instead of splitting, so no allocation.
	i := len(name) - 1 // the trailing dot
	for ; n > 0; n-- {
		j := strings.LastIndexByte(name[:i], '.')
		if j < 0 {
			return name
		}
		i = j
	}
	return name[i+1:]
}

// TLD returns the last label of name in canonical form ("com."), or "."
// for the root.
func TLD(name string) string { return LastLabels(name, 1) }

// SLD returns the last two labels ("example.com."), or fewer if the name
// is shorter.
func SLD(name string) string { return LastLabels(name, 2) }

// IsSubdomainOf reports whether child is equal to or below parent.
// Both are canonicalized first; every name is a subdomain of the root.
func IsSubdomainOf(child, parent string) bool {
	child, parent = Canonical(child), Canonical(parent)
	if parent == "." {
		return true
	}
	if child == parent {
		return true
	}
	return strings.HasSuffix(child, "."+parent)
}
