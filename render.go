package tiptop

// The text renderer: header and formatRow are the only code that
// formats a heading or a task row, and renderSample streams them as the
// `tiptop -b` block ("convenient for further processing, in the spirit
// of UNIX filters"). The interactive screen paints the same block's
// lines (cmd/tiptop), so live, batch, local and -connect output cannot
// disagree.

import (
	"fmt"
	"io"
	"strings"
	"time"

	"tiptop/internal/metrics"
)

// header produces the column header line for a screen, in the Figure 1
// layout: PID USER %CPU <metric columns...> COMMAND.
func header(s *metrics.Screen) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%7s %-8s %5s", "PID", "USER", "%CPU")
	for _, col := range s.Columns {
		fmt.Fprintf(&b, " %*s", col.Width, col.Header)
	}
	b.WriteString(" COMMAND")
	return b.String()
}

// formatRow renders one task row under the given screen. System-wide
// per-CPU rows show the CPU name in the PID column instead of the
// negative-PID encoding. A cell the row has no value for — every cell
// of an unmonitored task, or one past the end of a short row off the
// wire — shows as "-".
func formatRow(s *metrics.Screen, r *Row) string {
	var b strings.Builder
	if cpu, ok := r.CPU(); ok {
		fmt.Fprintf(&b, "%7s %-8.8s %5.1f", fmt.Sprintf("cpu%d", cpu), r.User, r.CPUPct)
	} else {
		fmt.Fprintf(&b, "%7d %-8.8s %5.1f", r.PID, r.User, r.CPUPct)
	}
	for i, col := range s.Columns {
		if !r.Monitored || i >= len(r.Columns) {
			fmt.Fprintf(&b, " %*s", col.Width, "-")
			continue
		}
		b.WriteByte(' ')
		b.WriteString(col.Cell(r.Columns[i]))
	}
	b.WriteByte(' ')
	b.WriteString(r.Command)
	return b.String()
}

// renderSample writes a sample as a batch text block under the given
// screen: the "--- t=" line, the header and one line per row — shared
// by the local and remote monitors so the same refresh renders
// byte-identically on both sides of the wire.
func renderSample(screen *metrics.Screen, w io.Writer, s *Sample) error {
	var b strings.Builder
	fmt.Fprintf(&b, "--- t=%s tasks=%d\n", s.Time.Truncate(time.Millisecond), len(s.Rows))
	b.WriteString(header(screen))
	b.WriteByte('\n')
	for i := range s.Rows {
		b.WriteString(formatRow(screen, &s.Rows[i]))
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}
