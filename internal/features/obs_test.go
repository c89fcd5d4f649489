package features

import (
	"encoding/binary"
	"math"
	"testing"
	"unsafe"

	"dnsobservatory/internal/dnswire"
	"dnsobservatory/internal/hll"
	"dnsobservatory/internal/sie"
)

// obsFuzzSummary builds the summary one fuzz input describes. lists
// drives the four variable-length fields: its first four bytes are their
// lengths (mod 9, so every slot count is crossed), the rest their values.
// The two hashes that are functions of a kept field are set as
// PrecomputeHashes sets them, which is what ready means; the bucket
// hints are whatever bits the input has to spare — right by chance, out
// of range, anything — since no hint may change a fold.
func obsFuzzSummary(lists []byte, delay float64, hops, respSize, answerCount, authorityNS, qdots int64,
	qtype uint16, rcode uint8, flags uint16, sensor, soa uint32) *sie.Summary {
	sum := &sie.Summary{
		HashesReady:   flags&(1<<8) == 0, // ready unless the input says otherwise
		DelayMs:       delay,
		Hops:          int(hops),
		RespSize:      int(respSize),
		AnswerCount:   int(answerCount),
		AuthorityNS:   int(authorityNS),
		QDots:         int(qdots),
		QType:         dnswire.Type(qtype),
		RCode:         dnswire.RCode(rcode),
		SensorID:      sensor,
		SOAMinimum:    soa,
		SensorHash:    hll.HashUint64(uint64(sensor)),
		QTypeHash:     hll.HashUint64(uint64(qtype)),
		DelayBucket:   uint16(soa),
		HopsBucket:    uint16(sensor >> 3),
		SizeBucket:    uint16(soa>>16) ^ uint16(flags>>9),
		TCP:           flags&(1<<0) != 0,
		Trunc:         flags&(1<<1) != 0,
		Answered:      flags&(1<<2) != 0,
		HasAnswerData: flags&(1<<3) != 0,
		HasAdditional: flags&(1<<4) != 0,
		DNSSECOK:      flags&(1<<5) != 0,
		HasRRSIG:      flags&(1<<6) != 0,
		HasSOA:        flags&(1<<7) != 0,
	}
	var lens [4]int
	for i := range lens {
		if i < len(lists) {
			lens[i] = int(lists[i] % 9)
		}
	}
	rest := lists[min(len(lists), 4):]
	next := func() uint64 { // the next value; zero-padded once the input runs out
		var b [8]byte
		rest = rest[copy(b[:], rest):]
		return binary.LittleEndian.Uint64(b[:])
	}
	sum.QNameHash, sum.TLDHash, sum.ESLDHash = next(), next(), next()
	sum.ResolverHash, sum.NameserverHash = next(), next()
	for i := 0; i < lens[0]; i++ {
		sum.V4Hashes = append(sum.V4Hashes, next())
	}
	for i := 0; i < lens[1]; i++ {
		sum.V6Hashes = append(sum.V6Hashes, next())
	}
	for i := 0; i < lens[2]; i++ {
		sum.AnswerTTLs = append(sum.AnswerTTLs, uint32(next()))
	}
	for i := 0; i < lens[3]; i++ {
		sum.NSTTLs = append(sum.NSTTLs, uint32(next()))
	}
	return sum
}

// obsFits says, from the documented rule alone, whether a record may
// hold sum.
func obsFits(sum *sie.Summary) bool {
	in := func(v int, lo, hi int64) bool { return int64(v) >= lo && int64(v) <= hi }
	return sum.HashesReady &&
		len(sum.V4Hashes)+len(sum.V6Hashes) <= obsAddrs &&
		len(sum.AnswerTTLs)+len(sum.NSTTLs) <= obsTTLs &&
		in(sum.RespSize, math.MinInt32, math.MaxInt32) && in(sum.Hops, math.MinInt32, math.MaxInt32) &&
		in(sum.AnswerCount, math.MinInt16, math.MaxInt16) && in(sum.AuthorityNS, math.MinInt16, math.MaxInt16) &&
		in(sum.QDots, math.MinInt16, math.MaxInt16)
}

// FuzzObsRoundTrip: a record either refuses a summary — exactly when the
// summary does not fit, never otherwise and never by cutting it down —
// or Observe(Fill(From(sum))) leaves a set as Observe(sum) does, to the
// bit of every reported value — whatever bucket hints sum came with,
// none of which the record keeps.
func FuzzObsRoundTrip(f *testing.F) {
	ok := uint16(1<<2 | 1<<3) // answered, with answer data
	f.Add([]byte{1, 0, 1, 0, 7, 7, 7}, 12.5, int64(9), int64(120), int64(1), int64(0), int64(3), uint16(1), uint8(0), ok, uint32(3), uint32(0))
	f.Add([]byte{2, 2, 3, 3}, 1.0, int64(5), int64(512), int64(3), int64(3), int64(2), uint16(28), uint8(0), ok|1<<7, uint32(1), uint32(900)) // full slots
	f.Add([]byte{3, 2, 1, 1}, 1.0, int64(5), int64(512), int64(5), int64(1), int64(2), uint16(1), uint8(0), ok, uint32(1), uint32(0))         // 5 addresses
	f.Add([]byte{0, 0, 4, 3}, 1.0, int64(5), int64(512), int64(4), int64(3), int64(2), uint16(1), uint8(0), ok, uint32(1), uint32(0))         // 7 TTLs
	f.Add([]byte{8, 8, 8, 8}, 1.0, int64(5), int64(512), int64(8), int64(8), int64(2), uint16(1), uint8(0), ok, uint32(1), uint32(0))
	f.Add([]byte{}, math.NaN(), int64(-1), int64(-70000), int64(-2), int64(-3), int64(-4), uint16(255), uint8(3), ok, uint32(0), uint32(0))
	f.Add([]byte{1}, math.Inf(1), int64(math.MaxInt32)+1, int64(1), int64(1), int64(1), int64(1), uint16(1), uint8(0), ok, uint32(0), uint32(0))
	f.Add([]byte{1}, math.Inf(-1), int64(1), int64(math.MinInt32)-1, int64(1), int64(1), int64(1), uint16(1), uint8(0), ok, uint32(0), uint32(0))
	f.Add([]byte{1}, 0.0, int64(1), int64(1), int64(math.MaxInt16)+1, int64(1), int64(1), uint16(1), uint8(0), ok, uint32(0), uint32(0))
	f.Add([]byte{1}, 0.0, int64(1), int64(1), int64(1), int64(math.MinInt64), int64(math.MaxInt64), uint16(1), uint8(0), ok, uint32(0), uint32(0))
	f.Add([]byte{1, 1, 1, 1}, 3.0, int64(4), int64(90), int64(1), int64(1), int64(2), uint16(1), uint8(0), uint16(0), uint32(2), uint32(0))     // unanswered
	f.Add([]byte{1, 1, 1, 1}, 3.0, int64(4), int64(90), int64(1), int64(1), int64(2), uint16(1), uint8(2), ok|1<<7, uint32(2), uint32(60))      // ServFail
	f.Add([]byte{1, 1, 1, 1}, 3.0, int64(4), int64(90), int64(1), int64(1), int64(2), uint16(28), uint8(0), ok|1<<8, uint32(2), uint32(60))     // hashes not ready
	f.Add([]byte{0, 1, 0, 2}, 3.0, int64(4), int64(90), int64(0), int64(2), int64(2), uint16(28), uint8(0), uint16(0x77), uint32(2), uint32(0)) // referral, DO+RRSIG

	f.Fuzz(func(t *testing.T, lists []byte, delay float64, hops, respSize, answerCount, authorityNS, qdots int64,
		qtype uint16, rcode uint8, flags uint16, sensor, soa uint32) {
		sum := obsFuzzSummary(lists, delay, hops, respSize, answerCount, authorityNS, qdots, qtype, rcode, flags, sensor, soa)
		var o Obs
		fits := obsFits(sum)
		if got := o.From(sum); got != fits {
			t.Fatalf("From = %v for a summary that fits = %v: %+v", got, fits, sum)
		}
		if !fits {
			return
		}
		// Both sets start from the same non-empty state, and take the
		// summary twice: a TTL seen again, a sketch register set again.
		direct, replayed := NewSet(Config{}), NewSet(Config{})
		base := okSummary("www.example.com.", dnswire.TypeA)
		direct.Observe(base)
		replayed.Observe(base)
		var scratch sie.Summary
		for i := 0; i < 2; i++ {
			direct.Observe(sum)
			o.Fill(&scratch)
			replayed.Observe(&scratch)
		}
		want, got := direct.Values(0.5), replayed.Values(0.5)
		for i := range want {
			if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
				t.Fatalf("column %s: %v folded directly, %v replayed from the record, for %+v",
					Columns[i].Name, want[i], got[i], sum)
			}
		}
	})
}

// TestObsSize pins the record: three of them and a count are one 416 B
// size class, which is what an object seen a few times costs.
func TestObsSize(t *testing.T) {
	if size := unsafe.Sizeof(Obs{}); size > 136 {
		t.Errorf("an Obs is %d B, want <= 136", size)
	}
}
