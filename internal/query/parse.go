package query

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// ParseBGP reads the textual form of a BGP: triple patterns separated by
// '.', ';' or newlines, each pattern three whitespace-separated terms, a
// term starting with '?' being a variable and anything else a literal.
//
//	?x type car . ?x locatedIn ?site
//
// Literals cannot contain whitespace or the separators; there is no quoting.
// The format exists for command lines (cmd/ontoaudit -query) and tests, not
// as a SPARQL front end.
//
// Terms are substrings of text, and the BGP is one allocation: a first pass
// counts the patterns, the second fills them in.
func ParseBGP(text string) (BGP, error) {
	n := 0
	for rest := text; rest != ""; {
		var seg string
		seg, rest = cutPattern(rest)
		if _, k := splitTerms(seg); k > 0 {
			n++
		}
	}
	if n == 0 {
		return nil, fmt.Errorf("query: no patterns in %q", text)
	}
	bgp := make(BGP, 0, n)
	for rest := text; rest != ""; {
		var seg string
		seg, rest = cutPattern(rest)
		fields, k := splitTerms(seg)
		if k == 0 {
			continue
		}
		if k != 3 {
			return nil, fmt.Errorf("query: pattern %q has %d terms, want 3 (subject predicate object)", strings.TrimSpace(seg), k)
		}
		var terms [3]Term
		for i, f := range fields {
			if name, isVar := strings.CutPrefix(f, "?"); isVar {
				if name == "" {
					return nil, fmt.Errorf("query: pattern %q has a variable with an empty name", strings.TrimSpace(seg))
				}
				terms[i] = Var(name)
			} else {
				terms[i] = Lit(f)
			}
		}
		bgp = append(bgp, Pat(terms[0], terms[1], terms[2]))
	}
	return bgp, nil
}

// cutPattern splits s at its first pattern separator. The separators are
// ASCII, so a byte search never splits a multi-byte rune.
func cutPattern(s string) (seg, rest string) {
	if i := strings.IndexAny(s, ".;\n"); i >= 0 {
		return s[:i], s[i+1:]
	}
	return s, ""
}

// splitTerms returns the first three whitespace-separated fields of seg and
// how many fields it has in all. Whitespace is unicode.IsSpace, as in
// strings.Fields; a byte that is not valid UTF-8 is not space.
func splitTerms(seg string) (fields [3]string, n int) {
	start := -1
	for i := 0; i < len(seg); {
		r, w := rune(seg[i]), 1
		if r >= utf8.RuneSelf {
			r, w = utf8.DecodeRuneInString(seg[i:])
		}
		switch {
		case !unicode.IsSpace(r):
			if start < 0 {
				start = i
			}
		case start >= 0:
			if n < len(fields) {
				fields[n] = seg[start:i]
			}
			n, start = n+1, -1
		}
		i += w
	}
	if start >= 0 {
		if n < len(fields) {
			fields[n] = seg[start:]
		}
		n++
	}
	return fields, n
}

// MustParseBGP is ParseBGP panicking on error, for statically known patterns
// in tests and examples.
func MustParseBGP(text string) BGP {
	bgp, err := ParseBGP(text)
	if err != nil {
		panic(err)
	}
	return bgp
}
