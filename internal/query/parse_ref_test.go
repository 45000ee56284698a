package query

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// This file keeps the straightforward ParseBGP and CanonicalWithVars —
// strings.FieldsFunc and strings.Fields for the split, a string sort and a
// rename map for the key — as references for the allocation-lean versions.

func refParseBGP(text string) (BGP, error) {
	var bgp BGP
	for _, raw := range strings.FieldsFunc(text, func(r rune) bool {
		return r == '.' || r == ';' || r == '\n'
	}) {
		fields := strings.Fields(raw)
		if len(fields) == 0 {
			continue
		}
		if len(fields) != 3 {
			return nil, fmt.Errorf("query: pattern %q has %d terms, want 3 (subject predicate object)", strings.TrimSpace(raw), len(fields))
		}
		var terms [3]Term
		for i, f := range fields {
			if name, isVar := strings.CutPrefix(f, "?"); isVar {
				if name == "" {
					return nil, fmt.Errorf("query: pattern %q has a variable with an empty name", strings.TrimSpace(raw))
				}
				terms[i] = Var(name)
			} else {
				terms[i] = Lit(f)
			}
		}
		bgp = append(bgp, Pat(terms[0], terms[1], terms[2]))
	}
	if len(bgp) == 0 {
		return nil, fmt.Errorf("query: no patterns in %q", text)
	}
	return bgp, nil
}

func refCanonicalWithVars(bgp BGP) (string, []string) {
	masked := make([]struct {
		key string
		pat TriplePattern
	}, len(bgp))
	for i, p := range bgp {
		masked[i].key = refForm(p, nil, nil)
		masked[i].pat = p
	}
	sort.SliceStable(masked, func(i, j int) bool { return masked[i].key < masked[j].key })
	rename := make(map[string]string, 4)
	var vars []string
	renamed := make([]string, len(masked))
	for i, m := range masked {
		renamed[i] = refForm(m.pat, rename, &vars)
	}
	sort.Strings(renamed)
	return strings.Join(renamed, " . "), vars
}

// refForm renders p with every variable masked to "?" (rename nil) or
// renamed through the shared table, which assigns ?v0, ?v1, … in order of
// first appearance and records each source name in vars.
func refForm(p TriplePattern, rename map[string]string, vars *[]string) string {
	var b strings.Builder
	for i, t := range p.terms() {
		if i > 0 {
			b.WriteByte(' ')
		}
		switch {
		case !t.IsVar:
			b.WriteString(t.Value)
		case rename == nil:
			b.WriteByte('?')
		default:
			name, ok := rename[t.Value]
			if !ok {
				name = "?v" + strconv.Itoa(len(rename))
				rename[t.Value] = name
				*vars = append(*vars, t.Value)
			}
			b.WriteString(name)
		}
	}
	return b.String()
}

// checkParseAndKey holds ParseBGP, CanonicalWithVars and AppendCanonical
// (after a prefix, with names already in vars) to the references on text.
func checkParseAndKey(t *testing.T, text string) {
	t.Helper()
	got, gerr := ParseBGP(text)
	want, werr := refParseBGP(text)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) || !reflect.DeepEqual(got, want) {
		t.Fatalf("ParseBGP(%q) = %v, %v; reference %v, %v", text, got, gerr, want, werr)
	}
	if werr != nil {
		return
	}
	wkey, wvars := refCanonicalWithVars(want)
	if key, vars := CanonicalWithVars(got); key != wkey || !reflect.DeepEqual(vars, wvars) {
		t.Fatalf("CanonicalWithVars(%q) = %q %q; reference %q %q", text, key, vars, wkey, wvars)
	}
	key, vars := AppendCanonical([]byte("prefix|"), got, []string{"held"})
	if string(key) != "prefix|"+wkey || !reflect.DeepEqual(vars, append([]string{"held"}, wvars...)) {
		t.Fatalf("AppendCanonical(%q) = %q %q; want %q after the prefix, %q after the held name", text, key, vars, wkey, wvars)
	}
}

// TestParseAndKeyMatchReference draws texts from an alphabet of the
// separators, ASCII and Unicode spaces (U+0085, U+00A0), bytes below ' ',
// invalid UTF-8 and a few terms, up to 40 patterns long.
func TestParseAndKeyMatchReference(t *testing.T) {
	pieces := []string{
		"?x", "?y", "?", "?v0", "type", "car", "p", "a\x01b", "\x1f", "a\x00", "?z\x02",
		" ", "  ", "\t", "\v", "\f", "\r", "\u0085", " ", " ",
		".", ";", "\n", " . ", "\xff", "\xe2\x80", "ſ",
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		var b strings.Builder
		for n := rng.Intn(12); n > 0; n-- {
			b.WriteString(pieces[rng.Intn(len(pieces))])
		}
		checkParseAndKey(t, b.String())
	}
	// Well-formed BGPs of every size up to 40 patterns, past the 16 the
	// stack arrays hold, with shared and repeated variables.
	terms := []string{"?a", "?b", "?c", "?d", "p", "q", "x\x01", "x", "y"}
	for i := 0; i < 2000; i++ {
		var b strings.Builder
		for n := 1 + rng.Intn(40); n > 0; n-- {
			fmt.Fprintf(&b, "%s %s %s %s ", terms[rng.Intn(len(terms))], terms[rng.Intn(len(terms))],
				terms[rng.Intn(len(terms))], []string{".", ";", "\n", "\u0085.", " ;"}[rng.Intn(5)])
		}
		checkParseAndKey(t, b.String())
	}
}

func FuzzParseAndKey(f *testing.F) {
	for _, s := range []string{
		"?x type car . ?x locatedIn ?site",
		"?a p ?b ; ?b p ?a\n?a q x\x01y",
		"a\x1fb p ?x . a p ?x",
		"?x\u0085type car",
		"? type car",
		"?x type",
		strings.Repeat("?x p ?y . ", 20),
	} {
		f.Add(s)
	}
	f.Fuzz(checkParseAndKey)
}
