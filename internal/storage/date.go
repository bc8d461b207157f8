package storage

import (
	"errors"
	"fmt"
)

// Dates are stored as int32 days since 1970-01-01 (proleptic Gregorian).
// The conversions below use the standard civil-date algorithms so that the
// generators and the date literals in predicates agree exactly.

// DateFromYMD returns the day number of year/month/day.
func DateFromYMD(y, m, d int) int32 { return int32(daysFromCivil(y, m, d)) }

// daysFromCivil is Howard Hinnant's days_from_civil, unwrapped.
func daysFromCivil(y, m, d int) int {
	if m <= 2 {
		y--
	}
	era := y / 400
	if y < 0 && y%400 != 0 {
		era--
	}
	yoe := y - era*400 // [0, 399]
	var mp int
	if m > 2 {
		mp = m - 3
	} else {
		mp = m + 9
	}
	doy := (153*mp+2)/5 + d - 1            // [0, 365]
	doe := yoe*365 + yoe/4 - yoe/100 + doy // [0, 146096]
	return era*146097 + doe - 719468
}

// YMDFromDate is the inverse of DateFromYMD.
func YMDFromDate(days int32) (y, m, d int) {
	z := int(days) + 719468
	era := z / 146097
	if z < 0 && z%146097 != 0 {
		era--
	}
	doe := z - era*146097
	yoe := (doe - doe/1460 + doe/36524 - doe/146096) / 365
	y = yoe + era*400
	doy := doe - (365*yoe + yoe/4 - yoe/100)
	mp := (5*doy + 2) / 153
	d = doy - (153*mp+2)/5 + 1
	if mp < 10 {
		m = mp + 3
	} else {
		m = mp - 9
	}
	if m <= 2 {
		y++
	}
	return y, m, d
}

// ParseDate parses "YYYY-MM-DD" into a day number: each part 1 to 8
// digits, month 1-12, day 1-31 (not checked against the month's length),
// nothing before or after, and a day number int32 holds. It is the one date
// grammar — SQL date literals, DateColumn and CSV ingest all parse with it —
// and allocates nothing on an accepted date or on rejected bytes.
func ParseDate[T string | []byte](s T) (int32, error) {
	var part [3]int
	i := 0
	for p := range part {
		if p > 0 {
			if i == len(s) || s[i] != '-' {
				return 0, badDate(s)
			}
			i++
		}
		start := i
		for i < len(s) && i-start < 8 && '0' <= s[i] && s[i] <= '9' {
			part[p] = part[p]*10 + int(s[i]-'0')
			i++
		}
		if i == start {
			return 0, badDate(s)
		}
	}
	y, m, d := part[0], part[1], part[2]
	if i != len(s) || m < 1 || m > 12 || d < 1 || d > 31 {
		return 0, badDate(s)
	}
	days := daysFromCivil(y, m, d)
	if days != int(int32(days)) {
		return 0, badDate(s)
	}
	return int32(days), nil
}

// badDate is ParseDate's error: it names a rejected string, and is one
// preallocated value for rejected bytes, which the ingest kernel turns into
// its own per-row message.
func badDate[T string | []byte](s T) error {
	if str, ok := any(s).(string); ok {
		return fmt.Errorf("storage: bad date %q", str)
	}
	return errBadDate
}

var errBadDate = errors.New("storage: bad date")

// MustParseDate is ParseDate for literals known to be valid.
func MustParseDate(s string) int32 {
	v, err := ParseDate(s)
	if err != nil {
		panic(err)
	}
	return v
}

// FormatDate renders a day number as "YYYY-MM-DD".
func FormatDate(days int32) string {
	y, m, d := YMDFromDate(days)
	return fmt.Sprintf("%04d-%02d-%02d", y, m, d)
}

// FormatDecimal renders a fixed-point value with DecimalScale digits.
func FormatDecimal(v int64) string {
	sign := ""
	if v < 0 {
		sign = "-"
		v = -v
	}
	return fmt.Sprintf("%s%d.%02d", sign, v/100, v%100)
}
