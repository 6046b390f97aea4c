// Package ui formats the tiptop engine's samples as text: Header and
// FormatRow are the only code that formats a heading or a task row, and
// the batch renderer streams them as blocks (the `tiptop -b` mode,
// "convenient for further processing, in the spirit of UNIX filters").
// The interactive screen paints the same block's lines (cmd/tiptop), so
// live, batch, local and -connect output cannot disagree.
package ui

import (
	"fmt"
	"io"
	"strings"
	"time"

	"tiptop/internal/core"
	"tiptop/internal/metrics"
)

// Header produces the column header line for a screen, in the Figure 1
// layout: PID USER %CPU <metric columns...> COMMAND.
func Header(s *metrics.Screen) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%7s %-8s %5s", "PID", "USER", "%CPU")
	for _, col := range s.Columns {
		fmt.Fprintf(&b, " %*s", col.Width, col.Header)
	}
	b.WriteString(" COMMAND")
	return b.String()
}

// FormatRow renders one task row under the given screen. System-wide
// per-CPU rows (negative hpm.CPUTask PIDs) show the CPU name in the
// PID column instead of the internal encoding.
func FormatRow(s *metrics.Screen, r *core.Row) string {
	var b strings.Builder
	if r.Info.ID.IsCPU() {
		fmt.Fprintf(&b, "%7s %-8.8s %5.1f", fmt.Sprintf("cpu%d", r.Info.ID.CPU()), r.Info.User, r.CPUPct)
	} else {
		fmt.Fprintf(&b, "%7d %-8.8s %5.1f", r.Info.ID.PID, r.Info.User, r.CPUPct)
	}
	for i, col := range s.Columns {
		if !r.Valid {
			fmt.Fprintf(&b, " %*s", col.Width, "-")
			continue
		}
		b.WriteByte(' ')
		b.WriteString(col.Cell(r.Values[i]))
	}
	b.WriteByte(' ')
	b.WriteString(r.Info.Comm)
	return b.String()
}

// BatchRenderer streams samples as text blocks.
type BatchRenderer struct {
	W io.Writer
	// Timestamps prefixes each block with the sample time.
	Timestamps bool
}

// Render writes one sample.
func (br *BatchRenderer) Render(screen *metrics.Screen, sample *core.Sample) error {
	var b strings.Builder
	if br.Timestamps {
		fmt.Fprintf(&b, "--- t=%s tasks=%d\n", formatDur(sample.Time), len(sample.Rows))
	}
	b.WriteString(Header(screen))
	b.WriteByte('\n')
	for i := range sample.Rows {
		b.WriteString(FormatRow(screen, &sample.Rows[i]))
		b.WriteByte('\n')
	}
	_, err := io.WriteString(br.W, b.String())
	return err
}

func formatDur(d time.Duration) string {
	return d.Truncate(time.Millisecond).String()
}
