package main

import (
	"io"
	"os"
	"os/signal"
	"strings"

	"tiptop"
	"tiptop/internal/term"
)

// refreshLoop is the one refresh loop, batch or interactive, against any
// MonitorAPI — a local engine or a -connect'ed remote daemon: one attach
// pass, then a sample per iteration handed to the emitter (which shows
// it and tees it to the record sinks) until -n refreshes are done, quit
// fires, or — without -n — a simulated scenario drains.
func refreshLoop(mon tiptop.MonitorAPI, iterations int, em *emitter, quit <-chan os.Signal) error {
	if _, err := mon.SampleNow(); err != nil { // attach pass
		return err
	}
	for i := 0; iterations <= 0 || i < iterations; i++ {
		select {
		case <-quit:
			return nil
		default:
		}
		sample, err := mon.Sample()
		if err != nil {
			return err
		}
		if err := em.emit(sample); err != nil {
			return err
		}
		if len(sample.Rows) == 0 && iterations <= 0 {
			return nil
		}
	}
	return nil
}

// paint puts one refresh on the interactive screen: the lines of the
// block -b prints for it, with the "--- t=" line turned into the status
// bar and the heading bold. Rows below the terminal's last line are
// dropped (Screen.SetLine ignores them).
func (e *emitter) paint(s *tiptop.Sample) error {
	var block strings.Builder
	if err := e.mon.Render(&block, s); err != nil {
		return err
	}
	lines := strings.Split(strings.TrimSuffix(block.String(), "\n"), "\n")
	e.screen.Clear()
	e.screen.SetLine(0, term.Reverse("tiptop - "+e.mon.Machine()+" - "+
		strings.TrimPrefix(lines[0], "--- ")+" (q<Enter> or Ctrl-C quits)"))
	e.screen.SetLine(1, term.Bold(lines[1]))
	for i, line := range lines[2:] {
		e.screen.SetLine(2+i, line)
	}
	return e.screen.Flush()
}

// quitChan fires on Ctrl-C and, when keys is set (the interactive
// screen's stdin), on a line containing q. Keyboard handling is
// line-based to stay within the standard library.
func quitChan(keys io.Reader) <-chan os.Signal {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt)
	if keys != nil {
		go func() {
			buf := make([]byte, 64)
			for {
				n, err := keys.Read(buf)
				if term.Quits(buf[:n]) {
					select {
					case ch <- os.Interrupt:
					default: // an interrupt is already pending
					}
					return
				}
				if err != nil {
					return
				}
			}
		}()
	}
	return ch
}
