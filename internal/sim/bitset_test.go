package sim

import (
	"reflect"
	"testing"
)

// TestBitsetForEachIn: the engine's worklists hold sets confined to
// arbitrary windows of the index space, and forEach/appendTo must
// enumerate them exactly across every word-boundary class. Each case
// sets only the pattern bits in [lo, hi), then checks both enumerations
// against a reference scan over get(). forEach runs the allocation
// worklist's way — clearing every visited bit — so the set must end
// empty.
func TestBitsetForEachIn(t *testing.T) {
	const n = 300 // several words plus a partial tail word
	// A pattern that straddles every boundary class: word edges, both
	// sides of them, mid-word runs, and the last partial word.
	pattern := []int32{0, 1, 62, 63, 64, 65, 100, 126, 127, 128, 191, 192, 255, 256, 298, 299}
	window := func(lo, hi int32) bitset {
		b := newBitset(n)
		for _, i := range pattern {
			if i >= lo && i < hi {
				b.set(i)
			}
		}
		return b
	}
	ref := func(b bitset) []int32 {
		var out []int32
		for i := int32(0); i < n; i++ {
			if b.get(i) {
				out = append(out, i)
			}
		}
		return out
	}
	cases := []struct {
		name   string
		lo, hi int32
	}{
		{"full-range", 0, n},
		{"empty-window", 100, 100},
		{"inverted-window", 200, 100},
		{"single-bit-window", 63, 64},
		{"single-clear-window", 40, 41},
		{"mid-word-both-ends", 10, 50},
		{"mid-word-across-boundary", 62, 66},
		{"aligned-lo", 64, 100},
		{"aligned-hi", 100, 128},
		{"aligned-both", 64, 192},
		{"word-exact", 128, 192},
		{"tail-partial-word", 256, n},
		{"hi-at-last-bit", 290, 299},
		{"hi-past-last-set", 299, n},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := window(tc.lo, tc.hi)
			want := ref(b)
			if got := b.appendTo(nil); !reflect.DeepEqual(got, want) {
				t.Errorf("appendTo over [%d, %d) = %v, want %v", tc.lo, tc.hi, got, want)
			}
			var got []int32
			b.forEach(func(i int32) {
				got = append(got, i)
				b.clear(i)
			})
			if !reflect.DeepEqual(got, want) {
				t.Errorf("forEach over [%d, %d) = %v, want %v", tc.lo, tc.hi, got, want)
			}
			if left := b.appendTo(nil); len(left) != 0 {
				t.Errorf("bits %v survive clearing every visited bit", left)
			}
		})
	}
	// Disjoint windows must tile exactly to the full enumeration.
	var tiled []int32
	for _, edge := range [][2]int32{{0, 37}, {37, 64}, {64, 65}, {65, 192}, {192, n}} {
		window(edge[0], edge[1]).forEach(func(i int32) { tiled = append(tiled, i) })
	}
	var full []int32
	window(0, n).forEach(func(i int32) { full = append(full, i) })
	if !reflect.DeepEqual(tiled, full) || !reflect.DeepEqual(full, pattern) {
		t.Errorf("tiled windows enumerate %v, full scan %v, pattern %v", tiled, full, pattern)
	}
}

// TestBitsetAppendTo: appendTo is forEach flattened into a slice
// append — the multi-VC move builds its seed order with it every
// cycle, so it must agree with forEach exactly and respect the
// destination's existing contents.
func TestBitsetAppendTo(t *testing.T) {
	const n = 300
	b := newBitset(n)
	for _, i := range []int32{0, 1, 63, 64, 127, 128, 200, 298, 299} {
		b.set(i)
	}
	var want []int32
	b.forEach(func(i int32) { want = append(want, i) })
	got := b.appendTo(nil)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("appendTo(nil) = %v, want %v", got, want)
	}
	pre := b.appendTo([]int32{-7})
	if len(pre) != len(want)+1 || pre[0] != -7 || !reflect.DeepEqual(pre[1:], want) {
		t.Errorf("appendTo kept-prefix = %v, want [-7 %v]", pre, want)
	}
	if out := newBitset(n).appendTo(nil); len(out) != 0 {
		t.Errorf("appendTo on empty set = %v, want none", out)
	}
}
