package quel

import (
	"math/rand"
	"testing"
)

// The parser must reject or accept — never panic — on arbitrary token
// soup assembled from the language's own vocabulary.
func TestParserNeverPanics(t *testing.T) {
	vocab := []string{
		"range", "of", "is", "retrieve", "into", "where", "when", "valid",
		"from", "to", "and", "overlap", "during", "before", "count", "sum",
		"f1", "Faculty", "Name", "ValidFrom", "(", ")", ",", ".", "=",
		"<", "<=", ">", ">=", "!=", `"str"`, "42", "forever",
	}
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 3000; trial++ {
		n := rng.Intn(25)
		src := ""
		for i := 0; i < n; i++ {
			src += vocab[rng.Intn(len(vocab))] + " "
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on %q: %v", src, r)
				}
			}()
			prog, err := Parse(src)
			if err == nil && prog != nil {
				// Accepted programs must also survive translation
				// attempts (errors fine, panics not).
				_, _ = Translate(prog, src2())
			}
		}()
	}
}

func src2() fixedSource { return src() }

// Mutilated versions of a valid query must never panic either.
func TestParserTruncationRobust(t *testing.T) {
	base := superstarSrc
	for cut := 0; cut < len(base); cut += 7 {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic at cut %d: %v", cut, r)
				}
			}()
			prog, err := Parse(base[:cut])
			if err == nil && prog != nil {
				_, _ = Translate(prog, src())
			}
		}()
	}
}

// FuzzParse feeds arbitrary text to the parser. Every input must come
// back as an error or as a program, never as a panic; an accepted program
// must also survive printing and translation (errors fine, panics not).
func FuzzParse(f *testing.F) {
	f.Add(superstarSrc)
	f.Add("range of f is Faculty\nretrieve (f.Name) where f.Rank=$1 and f.ValidFrom>=$2")
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse(src)
		if err != nil {
			return
		}
		if prog == nil {
			t.Fatalf("Parse(%q) returned neither a program nor an error", src)
		}
		_ = Print(prog)
		_, _ = Translate(prog, src2())
	})
}
