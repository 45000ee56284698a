package store

import (
	"encoding/hex"
	"fmt"
)

// This file is the base store's state digest: a 128-bit incremental multiset
// hash of the triples it holds (Clarke et al., "Incremental Multiset Hash
// Functions and Their Application to Memory Integrity Checking", ASIACRYPT
// 2003). The digest of a set is the lane-wise sum, mod 2⁶⁴, of H(s, p, o)
// over its triples, so a write moves it in O(delta) — add H for what it
// inserted, subtract H for what it deleted — and two stores holding the same
// triples carry the same digest whatever history built them and whatever ids
// their dictionaries assigned: H reads names, never ids.
//
// H is fixed: each name is hashed once into two 64-bit lanes (eight bytes at
// a time, each lane with its own multiplier, then the murmur3 finalizer),
// and a triple's lanes nest its three names' lanes in subject, predicate,
// object order through the finalizer, so the same names in another role hash
// apart. It uses no seed and no library hash whose output may change, so a
// digest is the same in every process and on every Go version
// (TestDigestGolden pins it). It detects divergence; it is not a defence
// against an adversary who chooses the triples.
//
// Only a base store keeps one: an overlay (NewOverlay) holds derived triples,
// which are a function of the base, and pays nothing.

// Digest is the multiset hash of a base store's triples; the zero value is
// the digest of the empty store.
type Digest [2]uint64

// Position names one point in a base store's write history: the generation
// after a write section, and the digest of the triples the section left. A
// generation alone is not a name — writes outside a reasoner (a seed load)
// leave it unmoved — so the pair is.
type Position struct {
	Gen    uint64
	Digest Digest
}

// String renders the digest as 32 lowercase hex digits, lane 0 first.
func (d Digest) String() string { return fmt.Sprintf("%016x%016x", d[0], d[1]) }

// ParseDigest parses String's form.
func ParseDigest(s string) (Digest, error) {
	var b [16]byte
	if len(s) != 32 {
		return Digest{}, fmt.Errorf("store: digest %q is not 32 hex digits", s)
	}
	if _, err := hex.Decode(b[:], []byte(s)); err != nil {
		return Digest{}, fmt.Errorf("store: digest %q: %w", s, err)
	}
	var d Digest
	for i := range 8 {
		d[0] = d[0]<<8 | uint64(b[i])
		d[1] = d[1]<<8 | uint64(b[8+i])
	}
	return d, nil
}

// MarshalText renders the digest as String does, so JSON carries it as a
// string.
func (d Digest) MarshalText() ([]byte, error) { return []byte(d.String()), nil }

// UnmarshalText parses String's form.
func (d *Digest) UnmarshalText(b []byte) (err error) {
	*d, err = ParseDigest(string(b))
	return err
}

// Add adds the triple to the multiset the digest names: summed over a set of
// triples from the zero digest, it is the digest of a store holding them.
func (d *Digest) Add(t Triple) {
	d.add(tripleHash(nameHash(t.Subject), nameHash(t.Predicate), nameHash(t.Object)))
}

func (d *Digest) add(h Digest) { d[0] += h[0]; d[1] += h[1] }
func (d *Digest) sub(h Digest) { d[0] -= h[0]; d[1] -= h[1] }

// nameHash is the two lanes of one name: its bytes read as little-endian
// words, the last one zero-padded, each word folded into both lanes.
func nameHash(s string) Digest {
	a, b := 0xcbf29ce484222325^uint64(len(s)), 0x84222325cbf29ce4^uint64(len(s))
	for len(s) > 0 {
		var w uint64
		if len(s) >= 8 {
			w = uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
				uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
			s = s[8:]
		} else {
			for i := len(s) - 1; i >= 0; i-- {
				w = w<<8 | uint64(s[i])
			}
			s = ""
		}
		a = (a ^ w) * 0x9e3779b97f4a7c15
		a ^= a >> 29
		b = (b ^ w) * 0xff51afd7ed558ccd
		b ^= b >> 31
	}
	return Digest{fmix64(a), fmix64(b)}
}

// tripleHash is H(s, p, o) from the three names' lanes.
func tripleHash(s, p, o Digest) Digest {
	return Digest{
		fmix64(s[0] ^ fmix64(p[0]^fmix64(o[0]^0x51afd7ed558ccdff))),
		fmix64(s[1] ^ fmix64(p[1]^fmix64(o[1]^0xce53c4ceb9fe1a85))),
	}
}

// fmix64 is murmur3's 64-bit finalizer.
func fmix64(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return k
}

// idHash is H of an encoded triple, its names read from names.
func idHash(names nameView, t IDTriple) Digest {
	return tripleHash(nameHash(names.dirs.at(t.S)), nameHash(names.dirs.at(t.P)), nameHash(names.dirs.at(t.O)))
}

// digestOf computes the digest of triples from scratch, hashing each name
// of the dictionary names once.
func digestOf(names nameView, triples []IDTriple) Digest {
	lanes := make([]Digest, names.n)
	for i := range lanes {
		lanes[i] = nameHash(names.dirs.at(uint32(i)))
	}
	var d Digest
	for _, t := range triples {
		d.add(tripleHash(lanes[t.S], lanes[t.P], lanes[t.O]))
	}
	return d
}
