package query

import (
	"bytes"
	"strconv"
)

// Canonical returns a canonical string key for the BGP, built for result
// caches: two BGPs with the same key are guaranteed to have identical
// solution multisets up to variable names (soundness), and most syntactic
// re-spellings of one query — renamed variables, reordered patterns — map to
// the same key (best-effort completeness; canonicalization never solves
// graph isomorphism, so some equivalent BGPs keep distinct keys and merely
// miss a cache hit).
//
// The key is computed in three steps: patterns are first ordered by their
// variable-erased skeleton (literals kept, every variable masked to "?"),
// then variables are renamed to ?v0, ?v1, … in order of first appearance
// over that ordering, and finally the renamed patterns are sorted once more
// so renaming ties cannot leak source order into the key. Patterns are
// joined with " . ", the textual form ParseBGP reads — a canonical key of a
// satisfiable BGP is itself a parseable BGP.
//
// Canonical is a pure function of the BGP value and safe for concurrent use.
func Canonical(bgp BGP) string {
	key, _ := CanonicalWithVars(bgp)
	return key
}

// CanonicalWithVars is Canonical returning, alongside the key, the BGP's
// original variable names in canonical order: vars[i] is the source name
// the key spells ?v<i>. A result cache that replays responses verbatim
// needs the mapping in its key — two queries may share a canonical form yet
// name their variables differently, and a replayed response must bind the
// names the request used.
func CanonicalWithVars(bgp BGP) (string, []string) {
	key, vars := AppendCanonical(nil, bgp, nil)
	return string(key), vars
}

// AppendCanonical appends Canonical(bgp) to dst and the variable names of
// CanonicalWithVars to vars, and returns both. Once dst and vars have room it
// allocates nothing (up to 16 patterns): the masked and renamed forms are
// written past the key's place in dst and the key is moved down over them,
// the orders are index arrays sorted stably by bytes.Compare over each whole
// form (comparing term by term would break the string order when a term
// holds a byte below ' '), and a variable's new name is its position among
// the names already found.
func AppendCanonical(dst []byte, bgp BGP, vars []string) ([]byte, []string) {
	var spare [2 * 16]form
	forms := spare[:0]
	if 2*len(bgp) > len(spare) {
		forms = make([]form, 0, 2*len(bgp))
	}
	base, first := len(dst), len(vars)
	for i, p := range bgp {
		start := len(dst)
		for k, t := range p.terms() {
			if k > 0 {
				dst = append(dst, ' ')
			}
			if t.IsVar {
				dst = append(dst, '?')
			} else {
				dst = append(dst, t.Value...)
			}
		}
		forms = append(forms, form{i, start, len(dst)})
	}
	masked := forms[:len(bgp)]
	sortForms(dst, masked)
	for _, m := range masked {
		start := len(dst)
		for k, t := range bgp[m.pat].terms() {
			if k > 0 {
				dst = append(dst, ' ')
			}
			if !t.IsVar {
				dst = append(dst, t.Value...)
				continue
			}
			v := first
			for v < len(vars) && vars[v] != t.Value {
				v++
			}
			if v == len(vars) {
				vars = append(vars, t.Value)
			}
			dst = append(dst, "?v"...)
			dst = strconv.AppendInt(dst, int64(v-first), 10)
		}
		forms = append(forms, form{m.pat, start, len(dst)})
	}
	renamed := forms[len(bgp):]
	sortForms(dst, renamed)
	key := len(dst)
	for i, r := range renamed {
		if i > 0 {
			dst = append(dst, " . "...)
		}
		dst = append(dst, dst[r.start:r.end]...)
	}
	n := copy(dst[base:], dst[key:])
	return dst[:base+n], vars
}

// form is one pattern's rendering in AppendCanonical's buffer: bytes
// [start, end) spell pattern pat.
type form struct{ pat, start, end int }

// sortForms is a stable insertion sort of forms by their bytes in buf: a BGP
// has a handful of patterns, and the server caps them at 16.
func sortForms(buf []byte, forms []form) {
	for i := 1; i < len(forms); i++ {
		for j := i; j > 0 && bytes.Compare(buf[forms[j].start:forms[j].end], buf[forms[j-1].start:forms[j-1].end]) < 0; j-- {
			forms[j], forms[j-1] = forms[j-1], forms[j]
		}
	}
}
