package store

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestOnlyTheSeamImportsOS keeps every file operation behind the
// filesystem seam: an os call anywhere else in the package would bypass
// the in-memory fake, and the crash and fault matrices would silently
// stop covering it. Only fs.go and the platform lock files may import
// "os".
func TestOnlyTheSeamImportsOS(t *testing.T) {
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
		if name == "fs.go" || strings.HasPrefix(name, "lock_") {
			continue
		}
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); path == "os" {
				t.Errorf("%s imports \"os\": reach the directory through the filesystem in fs.go", name)
			}
		}
	}
	if checked < 5 {
		t.Fatalf("parsed %d of the package's files; is the test running in its package directory?", checked)
	}
}
