package cape

import (
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"castle/internal/bitvec"
)

// FuzzSearchMatchesScan holds every search form to a brute-force scan of
// the register's first VL elements: after a load, after VL shrinks without
// a write (the search index must not answer from the longer prefix), after
// a write at the shorter VL, and, where the register still holds its full
// length, after VL grows back.
//
// Input layout: in[0] picks the write and seeds its value, in[1] the
// shrunk VL, in[2] the key count, in[3] the extra palette words; then the
// little-endian palette words (0 and 0xFFFFFFFF are always in it); then
// the keys and the register elements, one byte each. A byte picks palette
// word b&0x7f (mod palette size) plus b>>7, so elements repeat and keys
// land on present values and their neighbours.
func FuzzSearchMatchesScan(f *testing.F) {
	// Every element is 0xFFFFFFFF; VL shrinks to 3 of 8.
	f.Add([]byte{0, 3, 1, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	// Key 0x12345678 sits only past the shrunk VL (4 of 8), so an index
	// built at the longer VL would report lanes the shorter one lacks.
	f.Add([]byte{1, 4, 1, 1, 0x78, 0x56, 0x34, 0x12, 2, 0, 1, 0x80, 0x81, 2, 2, 0, 2})
	// Three palette words differing in every byte, many duplicates, VL 0
	// after the shrink, a vv write.
	f.Add([]byte{2, 0, 4, 3, 0x01, 0x02, 0x03, 0x04, 0xf0, 0xe0, 0xd0, 0xc0, 0x00, 0xff, 0x00, 0xff,
		2, 3, 4, 0x82, 2, 3, 4, 2, 3, 4, 0, 1, 0x80, 0x81, 2, 2, 3, 3, 4, 4})
	// Three of four elements share their second byte, which still orders
	// them after the fourth: no pass may be skipped unless every element
	// shares its byte.
	f.Add([]byte{0, 2, 2, 1, 0x00, 0x01, 0x00, 0x00, 0, 2, 2, 2, 2, 0})
	// 300 elements over 64 palette words that differ in every byte.
	long := []byte{3, 200, 6, 62}
	for i := uint32(1); i <= 62; i++ {
		long = binary.LittleEndian.AppendUint32(long, i*0x9E3779B9)
	}
	long = append(long, 0, 1, 2, 0x80, 0x81, 0xbf)
	for i := 0; i < 300; i++ {
		long = append(long, byte(i*37))
	}
	f.Add(long)

	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 4 {
			return
		}
		head, nKeys, nPal := in[:2], int(in[2]%16), int(in[3]%128)
		in = in[4:]
		palette := []uint32{0, 0xFFFFFFFF}
		for ; nPal > 0 && len(in) >= 4; nPal-- {
			palette = append(palette, binary.LittleEndian.Uint32(in))
			in = in[4:]
		}
		pick := func(b byte) uint32 { return palette[int(b&0x7f)%len(palette)] + uint32(b>>7) }
		if nKeys > len(in) {
			nKeys = len(in)
		}
		keys := make([]uint32, nKeys)
		for i := range keys {
			keys[i] = pick(in[i])
		}
		in = in[nKeys:]
		if len(in) > DefaultConfig().MAXVL {
			in = in[:DefaultConfig().MAXVL]
		}
		n := len(in)
		if n == 0 {
			return
		}
		elems := make([]uint32, n)
		for i, b := range in {
			elems[i] = pick(b)
		}
		other := slices.Clone(elems)
		slices.Reverse(other)
		shrunk := int(head[1]) % (n + 1)

		for _, layout := range []Layout{GPMode, CAMMode} {
			e := New(DefaultConfig().WithEnhancements())
			e.SetLayout(layout)
			e.SetVL(n)
			const r, o VReg = 0, 1
			e.Load(r, elems, 0)
			e.Load(o, other, 0)
			want := slices.Clone(elems) // mirrors register r

			check := func(stage string) {
				t.Helper()
				vl := e.VL()
				union := bitvec.New(vl)
				for _, k := range keys {
					var hits []int
					for i, x := range want[:vl] {
						if x == k {
							hits = append(hits, i)
							union.Set(i)
						}
					}
					where := fmt.Sprintf("%v, %s, VL %d, key %#x", layout, stage, vl, k)
					if got := e.Search(r, k).Indices(); !slices.Equal(got, hits) {
						t.Fatalf("%s: Search = %v, want %v", where, got, hits)
					}
					first := -1
					if len(hits) > 0 {
						first = hits[0]
					}
					if got := e.SearchFirst(r, k); got != first {
						t.Fatalf("%s: SearchFirst = %d, want %d", where, got, first)
					}
				}
				where := fmt.Sprintf("%v, %s, VL %d, keys %#x", layout, stage, vl, keys)
				if got := e.SearchBatch(r, keys); !got.Equal(union) {
					t.Fatalf("%s: SearchBatch = %v, want %v", where, got.Indices(), union.Indices())
				}
				if got := e.MultiKeySearch(r, keys); !got.Equal(union) {
					t.Fatalf("%s: MultiKeySearch = %v, want %v", where, got.Indices(), union.Indices())
				}
			}

			check("loaded")
			e.SetVL(shrunk)
			check("shrunk")
			val := pick(head[0])
			switch head[0] % 3 {
			case 0:
				mask := bitvec.New(shrunk)
				for i := 0; i < shrunk; i += 3 {
					mask.Set(i)
					want[i] = val
				}
				e.Merge(r, mask, val)
			case 1:
				e.Broadcast(r, val)
				want = want[:shrunk]
				for i := range want {
					want[i] = val
				}
			case 2:
				// vv arithmetic needs GP mode; the bit-parallel logical
				// ops write in either layout.
				if layout == GPMode {
					e.AddVV(r, r, o)
					for i := range want[:shrunk] {
						want[i] += other[i]
					}
				} else {
					e.XorVV(r, r, o)
					for i := range want[:shrunk] {
						want[i] ^= other[i]
					}
				}
				want = want[:shrunk]
			}
			check("written")
			if len(want) == n {
				e.SetVL(n)
				check("regrown")
			}
		}
	})
}
