// Package term provides the minimal terminal control the live mode
// needs: ANSI escape sequences, a diffing screen buffer, and spotting
// the quit key in keyboard input. It replaces the ncurses
// dependency of the original tool with a pure-stdlib implementation; when
// the output is not a terminal, batch mode remains fully functional,
// matching the paper's "in case the library is not available, tiptop can
// still be built, but only batch-mode is functional".
package term

import (
	"bytes"
	"fmt"
	"io"
	"strings"
)

// ANSI escape sequences.
const (
	escClear     = "\x1b[2J"
	escHome      = "\x1b[H"
	escHideCur   = "\x1b[?25l"
	escShowCur   = "\x1b[?25h"
	escReset     = "\x1b[0m"
	escBold      = "\x1b[1m"
	escReverse   = "\x1b[7m"
	escClearLine = "\x1b[K"
)

// Screen is a simple double-buffered text screen: Draw composes the next
// frame, Flush emits only the lines that changed since the previous
// frame, avoiding full-screen redraw flicker on real terminals.
type Screen struct {
	w          io.Writer
	rows, cols int
	prev       []string
	next       []string
	started    bool
}

// NewScreen creates a screen of the given geometry writing to w.
func NewScreen(w io.Writer, rows, cols int) (*Screen, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("term: invalid geometry %dx%d", rows, cols)
	}
	return &Screen{w: w, rows: rows, cols: cols, prev: make([]string, rows), next: make([]string, rows)}, nil
}

// Size returns the screen geometry.
func (s *Screen) Size() (rows, cols int) { return s.rows, s.cols }

// SetLine stages the content of row i for the next flush. Long lines are
// truncated to the screen width (ANSI-naive: callers apply styling via
// Bold/Reverse which is width-neutral in this implementation's
// accounting, so styled lines should stay shorter than the width).
func (s *Screen) SetLine(i int, text string) {
	if i < 0 || i >= s.rows {
		return
	}
	if len(text) > s.cols {
		text = text[:s.cols]
	}
	s.next[i] = text
}

// Clear stages an empty frame.
func (s *Screen) Clear() {
	for i := range s.next {
		s.next[i] = ""
	}
}

// Flush writes the staged frame, emitting only changed lines.
func (s *Screen) Flush() error {
	var b strings.Builder
	if !s.started {
		b.WriteString(escHideCur)
		b.WriteString(escClear)
		s.started = true
		// Force full paint.
		for i := range s.prev {
			s.prev[i] = "\x00invalid"
		}
	}
	for i := 0; i < s.rows; i++ {
		if s.next[i] == s.prev[i] {
			continue
		}
		fmt.Fprintf(&b, "\x1b[%d;1H%s%s", i+1, s.next[i], escClearLine)
		s.prev[i] = s.next[i]
	}
	b.WriteString(escHome)
	_, err := io.WriteString(s.w, b.String())
	return err
}

// Close restores the cursor.
func (s *Screen) Close() error {
	if !s.started {
		return nil
	}
	_, err := io.WriteString(s.w, escShowCur+escReset+"\n")
	return err
}

// Bold wraps text in bold ANSI styling.
func Bold(text string) string { return escBold + text + escReset }

// Reverse wraps text in reverse-video styling (the header bar).
func Reverse(text string) string { return escReverse + text + escReset }

// Quits reports whether terminal input holds the live mode's one
// command: q, Q or Ctrl-C.
func Quits(buf []byte) bool { return bytes.ContainsAny(buf, "qQ\x03") }
