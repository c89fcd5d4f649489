// Summarize equivalence: the walker-backed Summarizer against a frozen
// copy of the Unpack-then-type-switch form it replaced, over simnet
// traffic. External test package: simnet imports sie.
package sie_test

import (
	"math/rand"
	"reflect"
	"testing"

	"dnsobservatory/internal/dnswire"
	"dnsobservatory/internal/ipwire"
	"dnsobservatory/internal/sie"
	"dnsobservatory/internal/simnet"
)

// refSummarize is Summarizer.Summarize as it was when it unpacked both
// messages into dnswire.Message values.
func refSummarize(tx *sie.Transaction, keepUnparsable bool, out *sie.Summary) error {
	var qmsg, rmsg dnswire.Message
	qpkt, qTCP, err := ipwire.DecodeAny(tx.QueryPacket)
	if err != nil {
		return err
	}
	if qpkt.DstPort != ipwire.DNSPort {
		return sie.ErrNotDNSPort
	}
	if err := qmsg.Unpack(qpkt.Payload); err != nil {
		return err
	}
	q := qmsg.Question()
	*out = sie.Summary{
		Resolver:        qpkt.Src,
		Nameserver:      qpkt.Dst,
		ResolverStr:     qpkt.Src.String(),
		NameserverStr:   qpkt.Dst.String(),
		SensorID:        tx.SensorID,
		Workload:        tx.Workload,
		ClientTransport: tx.ClientTransport,
		QName:           q.Name,
		QType:           q.Type,
		QDots:           dnswire.CountLabels(q.Name),
		DNSSECOK:        qmsg.EDNSDo(),
		TCP:             qTCP,
	}
	if !tx.Answered() {
		return nil
	}
	rpkt, _, err := ipwire.DecodeAny(tx.ResponsePacket)
	if err != nil {
		if keepUnparsable {
			return nil
		}
		return err
	}
	if rpkt.Src != qpkt.Dst || rpkt.Dst != qpkt.Src {
		return sie.ErrIPMismatch
	}
	if err := rmsg.Unpack(rpkt.Payload); err != nil {
		if keepUnparsable {
			return nil
		}
		return err
	}
	out.Answered = true
	out.DelayMs = float64(tx.Delay().Microseconds()) / 1000
	out.Hops = ipwire.InferHops(rpkt.TTL)
	out.RespSize = len(tx.ResponsePacket)
	out.RCode = rmsg.Flags.RCode
	out.AA = rmsg.Flags.Authoritative
	out.Trunc = rmsg.Flags.Truncated
	out.AnswerCount = len(rmsg.Answers)
	out.HasAnswerData = len(rmsg.Answers) > 0
	for i := range rmsg.Answers {
		rr := &rmsg.Answers[i]
		out.AnswerTTLs = append(out.AnswerTTLs, rr.TTL)
		switch d := rr.Data.(type) {
		case dnswire.ARData:
			out.V4Addrs = append(out.V4Addrs, d.Addr)
			out.V4Strs = append(out.V4Strs, d.Addr.String())
		case dnswire.AAAARData:
			out.V6Addrs = append(out.V6Addrs, d.Addr)
			out.V6Strs = append(out.V6Strs, d.Addr.String())
		case dnswire.RRSIGRData:
			out.HasRRSIG = true
		}
	}
	for i := range rmsg.Authority {
		rr := &rmsg.Authority[i]
		switch d := rr.Data.(type) {
		case dnswire.NSRData:
			out.AuthorityNS++
			out.NSTTLs = append(out.NSTTLs, rr.TTL)
			out.NSNames = append(out.NSNames, d.NS)
		case dnswire.SOARData:
			out.HasSOA = true
			out.SOAMinimum = d.Minimum
			if rr.TTL < out.SOAMinimum {
				out.SOAMinimum = rr.TTL
			}
		case dnswire.RRSIGRData:
			out.HasRRSIG = true
		}
	}
	for i := range rmsg.Additional {
		if rmsg.Additional[i].Type != dnswire.TypeOPT {
			out.HasAdditional = true
			break
		}
	}
	return nil
}

// emptyToNil maps the reused, emptied slices of a recycled Summary to
// nil so they compare equal to the reference's never-filled ones.
func emptyToNil(s sie.Summary) sie.Summary {
	v := reflect.ValueOf(&s).Elem()
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Slice && f.Len() == 0 {
			f.Set(reflect.Zero(f.Type()))
		}
	}
	return s
}

// TestSummarizeMatchesReference: over a simnet pool — as generated, and
// with responses byte-flipped or truncated, in both strict and tolerant
// mode — Summarize and the reference agree on the error and on every
// field of the Summary (NSNames, SOAMinimum, HasRRSIG included). The
// reference memoizes the answer addresses' texts and the walker does
// not, so those are compared through V4Text/V6Text, which is how they
// are read.
// The walker's Summary is recycled across transactions, as on the
// ingest path, so stale state from the previous one would show.
func TestSummarizeMatchesReference(t *testing.T) {
	cfg := simnet.DefaultConfig()
	cfg.Duration = 4
	cfg.QPS = 500
	cfg.Resolvers = 20
	cfg.SLDs = 200
	rng := rand.New(rand.NewSource(16))
	var strict, tolerant sie.Summarizer
	tolerant.KeepUnparsableResponses = true
	var gotStrict, gotTolerant sie.Summary
	n, answered, withNS, withV4, withSOA, withSig, mangled := 0, 0, 0, 0, 0, 0, 0

	check := func(tx *sie.Transaction) {
		t.Helper()
		for _, mode := range []struct {
			s   *sie.Summarizer
			got *sie.Summary
		}{{&strict, &gotStrict}, {&tolerant, &gotTolerant}} {
			var want sie.Summary
			wantErr := refSummarize(tx, mode.s.KeepUnparsableResponses, &want)
			gotErr := mode.s.Summarize(tx, mode.got)
			if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
				t.Fatalf("tx %d: error differs: got %v, want %v", n, gotErr, wantErr)
			}
			if gotErr != nil {
				continue // a failed Summarize leaves out unspecified
			}
			for i, text := range want.V4Strs {
				if got := mode.got.V4Text(i); got != text {
					t.Fatalf("tx %d: V4Text(%d) = %q, want %q", n, i, got, text)
				}
			}
			for i, text := range want.V6Strs {
				if got := mode.got.V6Text(i); got != text {
					t.Fatalf("tx %d: V6Text(%d) = %q, want %q", n, i, got, text)
				}
			}
			want.V4Strs, want.V6Strs = nil, nil
			if g, w := emptyToNil(*mode.got), emptyToNil(want); !reflect.DeepEqual(g, w) {
				t.Fatalf("tx %d (keep=%v): summaries differ\n got: %+v\nwant: %+v",
					n, mode.s.KeepUnparsableResponses, g, w)
			}
		}
	}

	simnet.New(cfg).Run(func(tx *sie.Transaction) {
		n++
		check(tx)
		if gotStrict.Answered {
			answered++
		}
		if len(gotStrict.NSNames) > 0 {
			withNS++
		}
		if len(gotStrict.V4Addrs) > 0 {
			withV4++
		}
		if gotStrict.HasSOA {
			withSOA++
		}
		if gotStrict.HasRRSIG {
			withSig++
		}
		if len(tx.ResponsePacket) == 0 || n%3 != 0 {
			return
		}
		// Mangle the response: the rollback to the unanswered form and
		// the error identity are what this half checks.
		m := *tx
		m.ResponsePacket = append([]byte(nil), tx.ResponsePacket...)
		if rng.Intn(2) == 0 {
			m.ResponsePacket = m.ResponsePacket[:28+rng.Intn(len(m.ResponsePacket)-28)]
		} else {
			for f := 0; f < 1+rng.Intn(3); f++ {
				m.ResponsePacket[28+rng.Intn(len(m.ResponsePacket)-28)] = byte(rng.Intn(256))
			}
		}
		mangled++
		check(&m)
	})
	// The pool must have exercised every branch the visitor has.
	for name, c := range map[string]int{"answered": answered, "NS": withNS, "A": withV4,
		"SOA": withSOA, "RRSIG": withSig, "mangled": mangled} {
		if c == 0 {
			t.Errorf("pool of %d transactions had no %s case", n, name)
		}
	}
}
