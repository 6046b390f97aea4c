package remote

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestRemoteImportsOnlyBinenc keeps this package the wire form only: it
// encodes and decodes samples and serves and follows them, while every
// translation to another sample shape (the public facade's, the
// engine's) and the fleet roll-up live in the facade. Of this module's
// packages it may import only internal/binenc, the encoding primitives
// the binary frame shares with the store.
func TestRemoteImportsOnlyBinenc(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	checked := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		checked++
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if (path == "tiptop" || strings.HasPrefix(path, "tiptop/")) && path != "tiptop/internal/binenc" {
				t.Errorf("%s imports %q: the wire package translates to no other sample shape", name, path)
			}
		}
	}
	if checked < 5 {
		t.Fatalf("parsed %d of the package's files; is the test running in its package directory?", checked)
	}
}
