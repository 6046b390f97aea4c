package term

import (
	"strings"
	"testing"
)

func TestNewScreenValidation(t *testing.T) {
	var sb strings.Builder
	if _, err := NewScreen(&sb, 0, 80); err == nil {
		t.Fatal("zero rows accepted")
	}
	if _, err := NewScreen(&sb, 24, -1); err == nil {
		t.Fatal("negative cols accepted")
	}
	s, err := NewScreen(&sb, 24, 80)
	if err != nil {
		t.Fatal(err)
	}
	r, c := s.Size()
	if r != 24 || c != 80 {
		t.Fatalf("Size = %d,%d", r, c)
	}
}

func TestFirstFlushClearsAndPaints(t *testing.T) {
	var sb strings.Builder
	s, _ := NewScreen(&sb, 3, 20)
	s.SetLine(0, "hello")
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "\x1b[2J") {
		t.Fatal("first flush must clear the screen")
	}
	if !strings.Contains(out, "hello") {
		t.Fatal("content missing")
	}
	if !strings.Contains(out, "\x1b[?25l") {
		t.Fatal("cursor must be hidden")
	}
}

func TestFlushOnlyEmitsChangedLines(t *testing.T) {
	var sb strings.Builder
	s, _ := NewScreen(&sb, 3, 20)
	s.SetLine(0, "stable")
	s.SetLine(1, "changing-1")
	s.Flush()
	sb.Reset()
	s.SetLine(0, "stable")
	s.SetLine(1, "changing-2")
	s.Flush()
	out := sb.String()
	if strings.Contains(out, "stable") {
		t.Fatal("unchanged line must not be re-emitted")
	}
	if !strings.Contains(out, "changing-2") {
		t.Fatal("changed line must be emitted")
	}
}

func TestSetLineBounds(t *testing.T) {
	var sb strings.Builder
	s, _ := NewScreen(&sb, 2, 10)
	s.SetLine(-1, "x") // must not panic
	s.SetLine(5, "x")  // must not panic
	s.SetLine(0, "0123456789ABCDEF")
	s.Flush()
	if strings.Contains(sb.String(), "ABCDEF") {
		t.Fatal("overlong line must be truncated to screen width")
	}
}

func TestClearAndClose(t *testing.T) {
	var sb strings.Builder
	s, _ := NewScreen(&sb, 2, 10)
	if err := s.Close(); err != nil {
		t.Fatal("close before start is a no-op")
	}
	s.SetLine(0, "x")
	s.Flush()
	s.Clear()
	s.Flush()
	sb.Reset()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "\x1b[?25h") {
		t.Fatal("close must restore the cursor")
	}
}

func TestStyling(t *testing.T) {
	if Bold("x") != "\x1b[1mx\x1b[0m" {
		t.Fatalf("Bold = %q", Bold("x"))
	}
	if Reverse("x") != "\x1b[7mx\x1b[0m" {
		t.Fatalf("Reverse = %q", Reverse("x"))
	}
}

func TestQuits(t *testing.T) {
	for in, want := range map[string]bool{
		"q": true, "Q": true, "\x03": true, "zq": true, "s\x1b[Aq": true, "q\n": true,
		"h": false, "?": false, "s": false, "p": false, "\x1b[A": false, "\x1b[B": false,
		"\x1b[C": false, "\x1b": false, "": false, "\n": false,
	} {
		if got := Quits([]byte(in)); got != want {
			t.Errorf("Quits(%q) = %v, want %v", in, got, want)
		}
	}
}
