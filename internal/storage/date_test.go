package storage

import (
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// dateGrammar is ParseDate's grammar before its range checks.
var dateGrammar = regexp.MustCompile(`^([0-9]{1,8})-([0-9]{1,8})-([0-9]{1,8})$`)

// TestParseDateGrammar: a date is three runs of digits joined by '-', and
// nothing else — no sign, no surrounding bytes, no trailing separator —
// while a month's length is not checked. Both instantiations agree.
func TestParseDateGrammar(t *testing.T) {
	for _, c := range []struct {
		in   string
		want string // FormatDate of the accepted day, "" for a rejection
	}{
		{"2020-06-15", "2020-06-15"},
		{"2020-6-5", "2020-06-05"},
		{"2020-02-31", "2020-03-02"},
		{"0-1-1", "0000-01-01"},
		{"00002020-00000006-00000015", "2020-06-15"},
		{"2020-06-15x", ""},
		{" 2020-06-15", ""},
		{"2020-06-15 ", ""},
		{"-5-06-15", ""},
		{"+5-06-15", ""},
		{"2020-06-15-", ""},
		{"2020-06--15", ""},
		{"2020-06", ""},
		{"", ""},
		{"2020-13-01", ""},
		{"2020-06-00", ""},
		{"000002020-06-15", ""}, // nine digits
		{"99999999-12-31", ""},  // past int32 days
		{"2020-٠٦-15", ""},      // digits outside ASCII
	} {
		for _, kind := range []string{"string", "bytes"} {
			var d int32
			var err error
			if kind == "string" {
				d, err = ParseDate(c.in)
			} else {
				d, err = ParseDate([]byte(c.in))
			}
			switch {
			case c.want == "" && err == nil:
				t.Errorf("ParseDate(%q) as %s accepted as %s", c.in, kind, FormatDate(d))
			case c.want != "" && err != nil:
				t.Errorf("ParseDate(%q) as %s: %v", c.in, kind, err)
			case c.want != "" && FormatDate(d) != c.want:
				t.Errorf("ParseDate(%q) as %s = %s, want %s", c.in, kind, FormatDate(d), c.want)
			}
		}
	}
	if _, err := ParseDate("2020-06-15x"); err == nil || !strings.Contains(err.Error(), `"2020-06-15x"`) {
		t.Errorf("a rejected string is not named: %v", err)
	}
}

func TestParseDateAllocs(t *testing.T) {
	good, bad := []byte("2020-06-15"), []byte("2020-06-15-")
	for _, in := range [][]byte{good, bad} {
		if n := testing.AllocsPerRun(100, func() { ParseDate(in) }); n != 0 {
			t.Errorf("ParseDate(%q): %.1f allocations, want 0", in, n)
		}
	}
}

// FuzzParseDate: ParseDate never panics, accepts only the grammar with a
// month 1-12 and a day 1-31, accepts every such input whose day number fits
// int32, parses bytes as it parses the string, and reads back what
// FormatDate writes of an accepted day.
func FuzzParseDate(f *testing.F) {
	for _, s := range []string{"2020-06-15", "2020-6-5", "2020-02-31", "2020-06-15-", "-5-06-15", " 2020-06-15", "99999999-12-31", "5881580-07-11"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		d, err := ParseDate(s)
		if db, errb := ParseDate([]byte(s)); db != d || (errb == nil) != (err == nil) {
			t.Fatalf("%q: string %d,%v but bytes %d,%v", s, d, err, db, errb)
		}
		m := dateGrammar.FindStringSubmatch(s)
		inRange := false
		if m != nil {
			y, _ := strconv.Atoi(m[1])
			mo, _ := strconv.Atoi(m[2])
			dd, _ := strconv.Atoi(m[3])
			days := daysFromCivil(y, mo, dd)
			inRange = mo >= 1 && mo <= 12 && dd >= 1 && dd <= 31 && days == int(int32(days))
		}
		if (err == nil) != inRange {
			t.Fatalf("%q: accepted=%v, grammar and ranges say %v", s, err == nil, inRange)
		}
		if err != nil {
			return
		}
		back, err := ParseDate(FormatDate(d))
		if err != nil || back != d {
			t.Fatalf("%q: day %d formats as %q, which parses to %d,%v", s, d, FormatDate(d), back, err)
		}
	})
}
