package sim

import "math/bits"

// bitset is a fixed-size set of small non-negative integers, used for
// the engine's worklists: one bit per input buffer (the movement
// worklist seed) or per router (the allocation worklist). Enumeration
// is in ascending order, which the engine relies on for deterministic
// scheduling.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int32)      { b[i>>6] |= 1 << (uint(i) & 63) }
func (b bitset) clear(i int32)    { b[i>>6] &^= 1 << (uint(i) & 63) }
func (b bitset) get(i int32) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// setAll sets bits 0..n-1.
func (b bitset) setAll(n int) {
	for i := range b {
		b[i] = ^uint64(0)
	}
	if rem := n & 63; rem != 0 {
		b[len(b)-1] = 1<<uint(rem) - 1
	}
}

// appendTo appends every set bit to dst in ascending order and returns
// the extended slice. It is forEach without the per-bit indirect call,
// for per-cycle hot paths that materialize the set into a worklist
// (the multi-VC move's seed-order build).
func (b bitset) appendTo(dst []int32) []int32 {
	for w, word := range b {
		base := int32(w << 6)
		for word != 0 {
			dst = append(dst, base+int32(bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	return dst
}

// forEach calls fn for every set bit in ascending order. fn may clear
// bits; clears within the word being visited do not affect the current
// enumeration pass.
func (b bitset) forEach(fn func(i int32)) {
	for w, word := range b {
		for word != 0 {
			fn(int32(w<<6 + bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
}
