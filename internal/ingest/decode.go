package ingest

import "github.com/reprolab/swole/internal/storage"

// Hand-rolled field decoders. The standard library's strconv and
// fmt.Sscanf paths either allocate or tolerate surrounding whitespace;
// these accept exactly one grammar each, never allocate, and report
// failure with a bool so the kernel can attribute it to the row.

// minInt64Abs is |math.MinInt64| as a uint64.
const minInt64Abs = uint64(1) << 63

// decodeInt parses an optionally signed decimal integer:
// [+-]?[0-9]+ with int64 range checking.
func decodeInt(b []byte) (int64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	neg := false
	i := 0
	if b[0] == '+' || b[0] == '-' {
		neg = b[0] == '-'
		i++
	}
	if i == len(b) {
		return 0, false
	}
	var v uint64
	for ; i < len(b); i++ {
		d := b[i] - '0'
		if d > 9 {
			return 0, false
		}
		if v > (minInt64Abs-uint64(d))/10 {
			return 0, false // overflows |MinInt64|
		}
		v = v*10 + uint64(d)
	}
	if !neg && v >= minInt64Abs {
		return 0, false // MaxInt64+1 only fits negated
	}
	if neg {
		return -int64(v), true // v == 1<<63 wraps to MinInt64, as intended
	}
	return int64(v), true
}

// decodeDecimal parses a fixed-point decimal scaled by 10^DecimalScale:
// [+-]?[0-9]+(.[0-9]{1,2})? — "12.3" decodes to 1230, "12" to 1200.
func decodeDecimal(b []byte) (int64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	neg := false
	i := 0
	if b[0] == '+' || b[0] == '-' {
		neg = b[0] == '-'
		i++
	}
	if i == len(b) || b[i] == '.' {
		return 0, false
	}
	var whole uint64
	for ; i < len(b) && b[i] != '.'; i++ {
		d := b[i] - '0'
		if d > 9 {
			return 0, false
		}
		if whole > (minInt64Abs-uint64(d))/10 {
			return 0, false
		}
		whole = whole*10 + uint64(d)
	}
	var frac uint64
	if i < len(b) { // b[i] == '.'
		i++
		start := i
		for ; i < len(b); i++ {
			d := b[i] - '0'
			if d > 9 {
				return 0, false
			}
			frac = frac*10 + uint64(d)
		}
		switch i - start {
		case 1:
			frac *= 10
		case storage.DecimalScale:
		default:
			return 0, false
		}
	}
	if whole > (minInt64Abs-frac)/uint64(storage.DecimalOne) {
		return 0, false
	}
	v := whole*uint64(storage.DecimalOne) + frac
	if !neg && v >= minInt64Abs {
		return 0, false
	}
	if neg {
		return -int64(v), true
	}
	return int64(v), true
}

// decodeDate parses a date under storage.ParseDate's grammar into days
// since 1970-01-01.
func decodeDate(b []byte) (int64, bool) {
	d, err := storage.ParseDate(b)
	return int64(d), err == nil
}
