package metrics

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Table renders aligned text tables in the style of the paper's Tables
// I-III, and can also emit CSV for plotting.
type Table struct {
	Title string
	Cols  []string
	Rows  [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, cols ...string) *Table {
	return &Table{Title: title, Cols: cols}
}

// Add appends a row; it panics if the cell count does not match the header.
func (t *Table) Add(cells ...string) {
	if len(cells) != len(t.Cols) {
		panic(fmt.Sprintf("metrics: row has %d cells, table has %d columns", len(cells), len(t.Cols)))
	}
	t.Rows = append(t.Rows, cells)
}

// AddF appends a row of formatted values: strings pass through, float64
// render with 2 decimals, integers plainly.
func (t *Table) AddF(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = strconv.FormatFloat(v, 'f', 2, 64)
		case int:
			row[i] = strconv.Itoa(v)
		case int64:
			row[i] = strconv.FormatInt(v, 10)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Add(row...)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Cols))
	for i, c := range t.Cols {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		b.WriteByte('\n')
	}
	writeRow(t.Cols)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total-2))
	b.WriteByte('\n')
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// WriteCSV writes the table as CSV.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Cols); err != nil {
		return err
	}
	for _, r := range t.Rows {
		if err := cw.Write(r); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteSeriesCSV writes one or more series sharing a time axis as CSV with
// a "t" column followed by one column per series. Series are sampled on
// their own timestamps; rows are emitted per timestamp of the first series,
// with other series matched by index (series sampled by one Registry, and
// rates derived from them, are aligned).
func WriteSeriesCSV(w io.Writer, series ...*Series) error {
	if len(series) == 0 {
		return nil
	}
	cw := csv.NewWriter(w)
	header := []string{"t"}
	for _, s := range series {
		header = append(header, s.Name)
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for i := range series[0].Points {
		row := []string{strconv.FormatFloat(series[0].Points[i].T, 'f', 3, 64)}
		for _, s := range series {
			if i < len(s.Points) {
				row = append(row, strconv.FormatFloat(s.Points[i].V, 'f', 3, 64))
			} else {
				row = append(row, "")
			}
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// AsciiPlot renders a crude console plot of a series: one row per bucket of
// time, a bar proportional to the value. It keeps the figure-style results
// inspectable without any plotting dependency.
func AsciiPlot(s *Series, buckets, width int) string {
	if len(s.Points) == 0 || buckets < 1 {
		return "(no data)\n"
	}
	t0 := s.Points[0].T
	t1 := s.Points[len(s.Points)-1].T
	if t1 <= t0 {
		t1 = t0 + 1
	}
	max := s.Max()
	if max <= 0 {
		max = 1
	}
	span := (t1 - t0) / float64(buckets)
	var b strings.Builder
	fmt.Fprintf(&b, "%s (peak %.0f)\n", s.Name, max)
	for i := 0; i < buckets; i++ {
		lo := t0 + float64(i)*span
		hi := lo + span
		m, ok := s.MeanBetween(lo, hi)
		bar := 0
		if ok {
			bar = int(m / max * float64(width))
		}
		if bar > width {
			bar = width
		}
		fmt.Fprintf(&b, "%7.0fs |%s%s| %8.0f\n", lo, strings.Repeat("#", bar), strings.Repeat(" ", width-bar), m)
	}
	return b.String()
}
