package xsdlex

import (
	"errors"
	"math"
	"math/big"
	"math/rand"
	"regexp"
	"strconv"
	"testing"

	"bsoap/internal/dragon"
)

// The float kernels have two oracles: strconv (Ryu-class printer, its own
// Eisel–Lemire and decimal fallback) and dragon (exact big-integer
// arithmetic both ways, written from first principles). strconv is fast
// enough to check every value; dragon, a thousand times slower, checks the
// named edge cases and a sample of the random ones.

// doubleGrammar is the xsd:double lexical space, after trimming.
var doubleGrammar = regexp.MustCompile(`^([+-]?([0-9]+(\.[0-9]*)?|\.[0-9]+)([eE][+-]?[0-9]+)?|[+-]?INF|NaN)$`)

func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || a != a && b != b
}

// checkPrint holds the printer to strconv's bytes and, with deep set, to
// dragon's, then feeds the text back through the parser.
func checkPrint(t *testing.T, v float64, deep bool) {
	t.Helper()
	var buf [MaxDoubleWidth]byte
	got := AppendDouble(buf[:0], v)
	if want := strconv.AppendFloat(nil, v, 'G', -1, 64); string(got) != string(want) {
		t.Fatalf("AppendDouble(%x) = %q, strconv %q", math.Float64bits(v), got, want)
	}
	if n := DoubleLen(v); n != len(got) {
		t.Fatalf("DoubleLen(%s) = %d", got, n)
	}
	if deep {
		if want := dragon.AppendShortest(nil, v); string(got) != string(want) {
			t.Fatalf("AppendDouble(%x) = %q, dragon %q", math.Float64bits(v), got, want)
		}
	}
	back, err := ParseDouble(got)
	if err != nil || !sameBits(back, v) {
		t.Fatalf("ParseDouble(%s) = %x, %v; printed from %x", got, math.Float64bits(back), err, math.Float64bits(v))
	}
}

// checkParse holds the parser to the grammar and, for text inside it, to
// strconv's bits and (deep) dragon's.
func checkParse(t *testing.T, s string, deep bool) {
	t.Helper()
	got, err := ParseDouble(s)
	fromBytes, berr := ParseDouble([]byte(s))
	if (err == nil) != (berr == nil) || !sameBits(got, fromBytes) {
		t.Fatalf("ParseDouble(%q): string %v, %v; bytes %v, %v", s, got, err, fromBytes, berr)
	}
	trimmed := TrimSpace(s)
	if !doubleGrammar.MatchString(trimmed) {
		if err == nil {
			t.Fatalf("ParseDouble(%q) = %v, outside the grammar", s, got)
		}
		if !errors.Is(err, strconv.ErrSyntax) {
			t.Fatalf("ParseDouble(%q): %v, want a syntax error", s, err)
		}
		return
	}
	if trimmed[len(trimmed)-1] == 'F' || trimmed == "NaN" {
		want := map[byte]float64{'I': math.Inf(1), '+': math.Inf(1), '-': math.Inf(-1), 'N': math.NaN()}[trimmed[0]]
		if err != nil || !sameBits(got, want) {
			t.Fatalf("ParseDouble(%q) = %v, %v", s, got, err)
		}
		return
	}
	want, werr := strconv.ParseFloat(trimmed, 64)
	if werr != nil {
		// The grammar is a subset of strconv's, so this is the range error.
		if !errors.Is(err, strconv.ErrRange) {
			t.Fatalf("ParseDouble(%q) = %v, %v; strconv %v", s, got, err, werr)
		}
		return
	}
	if err != nil || !sameBits(got, want) {
		t.Fatalf("ParseDouble(%q) = %x, %v; strconv %x", s, math.Float64bits(got), err, math.Float64bits(want))
	}
	if deep {
		if want, derr := dragon.Parse(trimmed); derr != nil || !sameBits(got, want) {
			t.Fatalf("ParseDouble(%q) = %x; dragon %x, %v", s, math.Float64bits(got), math.Float64bits(want), derr)
		}
	}
}

func TestKernelsNamedCases(t *testing.T) {
	values := []float64{
		0, math.Copysign(0, -1), 1, -1, 5, 0.5, 0.1, 0.3, 1.0 / 3,
		5e-324, math.SmallestNonzeroFloat64, 2.2250738585072014e-308, 2.225073858507201e-308,
		math.MaxFloat64, -math.MaxFloat64, math.MaxInt64, math.MaxUint64,
		1 << 53, 1<<53 - 1, 1<<53 + 2, 9007199254740993,
		1e21, 1e22, 1e23, 1e15, 1e16, 1e17, 123456789012345678,
		// Both sides of each %f/%E switch.
		1e-5, 9.999999999999999e-5, 1e-4, 0.00010000000000000002,
		99999.9, 999999.9, 999999.9999999999, 1e6, 1000000.0000000001, 100000, 1234560,
		// Exponent widths.
		1e-9, 1e-10, 1e-99, 1e-100, 1e99, 1e100, 1.5e-100, 1e-323,
	}
	for e := -1074; e <= 1023; e++ { // every power of two, subnormals included
		values = append(values, math.Ldexp(1, e))
	}
	for q := -323; q <= 308; q++ {
		v, _ := strconv.ParseFloat("1e"+strconv.Itoa(q), 64)
		values = append(values, v, math.Nextafter(v, 0), math.Nextafter(v, math.Inf(1)))
	}
	for _, v := range values {
		for _, v := range []float64{v, -v, math.Nextafter(v, 0), math.Nextafter(v, math.Inf(1))} {
			if !math.IsInf(v, 0) { // the neighbour above MaxFloat64
				checkPrint(t, v, true)
			}
		}
	}
	// strconv and dragon spell these three Go's way.
	for _, c := range []struct {
		bits uint64
		want string
	}{{0x7FF0000000000000, "INF"}, {0xFFF0000000000000, "-INF"}, {0x7FF8000000000001, "NaN"}, {0xFFF0000000000001, "NaN"}} {
		v := math.Float64frombits(c.bits)
		if got := string(AppendDouble(nil, v)); got != c.want || DoubleLen(v) != len(c.want) {
			t.Errorf("AppendDouble(%x) = %q, DoubleLen %d", c.bits, got, DoubleLen(v))
		}
	}

	texts := []string{
		// Accepted: every optional part present and absent.
		"0", "-0", "+0", "5", "5.", ".5", "+1.5", "-1.5", "1e5", "1E5", "1e+5", "1E-5", "5.e3", ".5e3",
		"INF", "+INF", "-INF", "NaN", " \t\n\r1.5\r\n\t ", "007", "0.000", "1e0000000000000000000005",
		// Halfway and near-halfway cases, long inputs, range edges.
		"9007199254740993", "9007199254740992.5", "9007199254740993.0000000000000000000001",
		"1.7976931348623157e308", "1.7976931348623158e308", "1.7976931348623159e308",
		"1E+400", "-1E+400", "1e-400", "2.4703282292062327e-324", "2.4703282292062328e-324",
		"4.9406564584124654e-324", "2.2250738585072011e-308", "0e999999999", "0.0e-999999999",
		"1e23", "8.41e21", "1.00000000000000011102230246251565404236316680908203125",
		"1.00000000000000011102230246251565404236316680908203124",
		"1.00000000000000011102230246251565404236316680908203126",
		"12345678901234567890", "1234567890123456789", "0.00000000000000000001234567890123456789",
		"00000000000000000000001", "100000000000000000000000", "0.30000000000000004",
		"6.02214076e23", "1e347", "1e-348", "1e348", "1e-349", "123456789012345678e-340",
		// Outside the grammar: what strconv reads and XSD does not.
		"0x1p-2", "0X1P-2", "Infinity", "infinity", "inf", "Inf", "+Inf", "-inf", "nan", "NAN", "1_0", "1_000.5",
		// Outside the grammar: fragments and garbage.
		"", " ", ".", "+", "-", "e", "E5", ".e5", "+.", "1e", "1e+", "1e-", "1.5e", "1..2", "1.2.3",
		"1e5.5", "1e5e5", "--1", "+-1", "1-", "1 2", "1,5", "1.5x", "x1.5", "1.5 x", "INFINITY", "INF ", "-NaN", "+NaN",
		"1\x00", "١",
	}
	for _, s := range texts {
		checkParse(t, s, len(s) < 40)
	}
}

// propertyN is how many random values each property test draws.
func propertyN() int {
	switch {
	case testing.Short():
		return 200_000
	case raceEnabled:
		return 1_000_000
	}
	return 10_000_000
}

func TestKernelsRandomBits(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for i, n := 0, propertyN(); i < n; i++ {
		v := math.Float64frombits(rng.Uint64())
		if v != v || math.IsInf(v, 0) {
			continue
		}
		checkPrint(t, v, i%4096 == 0)
	}
}

// TestKernelsBenchmarkShapes draws the two value shapes the benchmark's
// workloads send: (rand*2−1)·1e6, seventeen digits in positional notation,
// and n/1e12, a short decimal.
func TestKernelsBenchmarkShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for i, n := 0, propertyN()/5; i < n; i++ {
		checkPrint(t, (rng.Float64()*2-1)*1e6, i%4096 == 0)
		checkPrint(t, float64(rng.Int63n(1e12))/1e12, i%4096 == 1)
	}
}

// TestParseRandomDecimals feeds digit strings no printer produced: one to
// twenty-five digits, a point anywhere, an exponent across the whole table
// and past both ends.
func TestParseRandomDecimals(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var buf []byte
	for i, n := 0, propertyN()/10; i < n; i++ {
		buf = buf[:0]
		if rng.Intn(2) == 0 {
			buf = append(buf, "+-"[rng.Intn(2)])
		}
		nd := 1 + rng.Intn(25)
		point := rng.Intn(nd + 2) // nd+1: none
		for j := 0; j < nd; j++ {
			if j == point {
				buf = append(buf, '.')
			}
			buf = append(buf, byte('0'+rng.Intn(10)))
		}
		if point == nd {
			buf = append(buf, '.')
		}
		if rng.Intn(3) > 0 {
			buf = append(buf, "eE"[rng.Intn(2)])
			buf = strconv.AppendInt(buf, int64(rng.Intn(720)-360), 10)
		}
		checkParse(t, string(buf), i%1024 == 0)
	}
}

// TestParseHalfway aims at the parser's hard inputs: the exact decimal
// expansion of the midpoint between two adjacent doubles, and the same
// nudged up and down in its last digit. Midpoints short enough for
// Eisel–Lemire (19 digits or fewer) are the ones it must decline.
func TestParseHalfway(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for i := 0; i < 20000; i++ {
		// Doubles with few significant bits and small exponents have
		// short midpoints.
		m := uint64(rng.Int63n(1<<uint(1+rng.Intn(53)))) | 1
		e := rng.Intn(80) - 60
		mid := new(big.Float).SetPrec(200).SetMantExp(new(big.Float).SetUint64(2*m+1), e-1)
		s := mid.Text('f', -1)
		checkParse(t, s, true)
		last := len(s) - 1
		if s[last] > '0' && s[last] < '9' {
			checkParse(t, s[:last]+string(s[last]+1), true)
			checkParse(t, s[:last]+string(s[last]-1), true)
		}
	}
}

// TestPow10Table rebuilds every table entry with math/big, independently
// of the generator: the entry is the one 128-bit integer m with
// m·2^(e-127) <= 10^q < (m+1)·2^(e-127), e as floorLog2Pow10 computes it.
func TestPow10Table(t *testing.T) {
	if len(pow10tab) != pow10Max-pow10Min+1 {
		t.Fatalf("table has %d entries", len(pow10tab))
	}
	one := big.NewInt(1)
	for q := pow10Min; q <= pow10Max; q++ {
		g := pow10tab[q-pow10Min]
		if g[0]>>63 == 0 {
			t.Fatalf("1e%d: not normalised", q)
		}
		m := new(big.Int).SetUint64(g[0])
		m.Lsh(m, 64).Or(m, new(big.Int).SetUint64(g[1]))
		// Compare m·2^sh·10^-q with 1, cross-multiplied into integers.
		sh := floorLog2Pow10(q) - 127
		lhs, rhs := new(big.Int).Set(m), big.NewInt(1)
		next := new(big.Int).Add(m, one)
		ten := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(max(q, -q))), nil)
		if q >= 0 {
			rhs.Mul(rhs, ten)
		} else {
			lhs.Mul(lhs, ten)
			next.Mul(next, ten)
		}
		if sh >= 0 {
			lhs.Lsh(lhs, uint(sh))
			next.Lsh(next, uint(sh))
		} else {
			rhs.Lsh(rhs, uint(-sh))
		}
		exact := lhs.Cmp(rhs) == 0
		if lhs.Cmp(rhs) > 0 || next.Cmp(rhs) <= 0 {
			t.Fatalf("1e%d: entry is not the floor", q)
		}
		if exact != (0 <= q && q <= pow10Exact) {
			t.Fatalf("1e%d: exact = %v", q, exact)
		}
	}
}

var intGrammar = regexp.MustCompile(`^[+-]?[0-9]+$`)

// checkParseInt holds ParseInt, on both input types, to strconv.ParseInt
// at 32 bits: same acceptance, same value, same error kind. The one place
// the kinds differ is text that is both too long and malformed ("99999999999x"):
// strconv stops at the overflow and reports a range error, the grammar comes
// first here and it is a syntax error.
func checkParseInt(t *testing.T, s string) {
	t.Helper()
	want, werr := strconv.ParseInt(TrimSpace(s), 10, 32)
	if werr != nil && !intGrammar.MatchString(TrimSpace(s)) {
		werr = &strconv.NumError{Err: strconv.ErrSyntax}
	}
	for _, got := range []func() (int32, error){
		func() (int32, error) { return ParseInt(s) },
		func() (int32, error) { return ParseInt([]byte(s)) },
	} {
		v, err := got()
		if (err == nil) != (werr == nil) || err == nil && int64(v) != want {
			t.Errorf("ParseInt(%q) = %d, %v; strconv %d, %v", s, v, err, want, werr)
		}
		if werr != nil && !errors.Is(err, errors.Unwrap(werr)) {
			t.Errorf("ParseInt(%q): %v, strconv %v", s, err, werr)
		}
	}
}

func TestParseInt(t *testing.T) {
	for _, s := range []string{"0", "-0", "+0", "7", "+7", "-7", "007", "2147483647", "-2147483648", "+2147483647",
		"2147483648", "-2147483649", "99999999999", "99999999999999999999999999", "-99999999999999999999999999",
		// MinInt32's digits with more after them: the accumulator must not
		// stop at 2^31 and then pass the range check as MinInt32.
		"-21474836480", "-2147483648000", "-214748364800000", "21474836480", "-21474836489", "-0002147483648", "-00021474836480",
		"21474836470", "-2147483648x", "-21474836480x",
		"", "+", "-", "1_0", "0x10", "12x", "x12", "1.0", "1e3", "--1", "+-1", "1 2", " 42\n", "4294967297", "18446744073709551617"} {
		checkParseInt(t, s)
	}
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 200000; i++ {
		v := int32(rng.Uint32())
		if got, err := ParseInt(AppendInt(nil, v)); err != nil || got != v {
			t.Fatalf("ParseInt(%d) = %d, %v", v, got, err)
		}
	}
	// Every int64 near the two limits, and each with digits appended.
	for _, edge := range []int64{math.MinInt32, math.MaxInt32} {
		for d := int64(-20); d <= 20; d++ {
			s := strconv.FormatInt(edge+d, 10)
			for _, tail := range []string{"", "0", "9", "00000", "0000000000000000000000"} {
				checkParseInt(t, s+tail)
			}
		}
	}
	// Random digit strings of every length around the limit.
	for i := 0; i < 200000; i++ {
		b := make([]byte, 0, 16)
		if rng.Intn(2) == 0 {
			b = append(b, '-')
		}
		for n := 1 + rng.Intn(14); n > 0; n-- {
			b = append(b, byte('0'+rng.Intn(10)))
		}
		checkParseInt(t, string(b))
	}
}

// checkAppendInt holds the int printer to strconv, appending after a
// non-empty prefix so that a write before dst's end shows.
func checkAppendInt(t *testing.T, v int32) {
	t.Helper()
	want := strconv.AppendInt([]byte("<v>"), int64(v), 10)
	if got := AppendInt([]byte("<v>"), v); string(got) != string(want) {
		t.Fatalf("AppendInt(%d) = %q, strconv %q", v, got, want)
	}
	if got, n := IntLen(v), len(want)-len("<v>"); got != n {
		t.Fatalf("IntLen(%d) = %d, strconv writes %d bytes", v, got, n)
	}
}

// TestAppendInt holds AppendInt and IntLen to strconv on the edges of
// every digit count, the two limits and random int32s, each printed
// after bytes already in dst; then into a full dst and one with room.
func TestAppendInt(t *testing.T) {
	edges := []int32{0, 1, -1, math.MaxInt32, math.MinInt32, math.MaxInt32 - 1, math.MinInt32 + 1}
	for p := int64(10); p <= math.MaxInt32; p *= 10 {
		for _, v := range []int64{p - 1, p, p + 1} {
			edges = append(edges, int32(v), int32(-v))
		}
	}
	for _, v := range edges {
		checkAppendInt(t, v)
	}
	rng := rand.New(rand.NewSource(21))
	for i, n := 0, propertyN(); i < n; i++ {
		checkAppendInt(t, int32(rng.Uint32()))
	}
	// A full dst grows; one with room is written in place.
	full := []byte("<v>")
	if got := AppendInt(full[:len(full):len(full)], -42); string(got) != "<v>-42" || string(full) != "<v>" {
		t.Fatalf("AppendInt into a full dst = %q, dst now %q", got, full)
	}
	roomy := make([]byte, 3, 3+MaxIntWidth)
	if got := AppendInt(roomy, 7); &got[0] != &roomy[0] || string(got[3:]) != "7" {
		t.Fatalf("AppendInt into a dst with room moved it or wrote %q", got[3:])
	}
}

// TestParseErrorsCloneInput: an error must not keep the caller's bytes
// alive or show them changing, since diffdeser parses a body in place.
func TestParseErrorsCloneInput(t *testing.T) {
	for _, parse := range []func([]byte) error{
		func(b []byte) error { _, err := ParseDouble(b); return err },
		func(b []byte) error { _, err := ParseInt(b); return err },
		func(b []byte) error { _, err := ParseBool(b); return err },
	} {
		b := []byte("12x4")
		err := parse(b)
		if err == nil {
			t.Fatal("12x4 accepted")
		}
		before := err.Error()
		copy(b, "####")
		if err.Error() != before {
			t.Fatalf("error aliases its input: %q then %q", before, err.Error())
		}
	}
}

func TestParseDoubleBytesDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	inputs := [][]byte{[]byte("-123456.12345678901"), []byte("0.000123456789"), []byte("1.7976931348623157E+308"), []byte(" INF "), []byte("12345")}
	allocs := testing.AllocsPerRun(100, func() {
		for _, b := range inputs {
			if _, err := ParseDouble(b); err != nil {
				t.Fatal(err)
			}
			ParseInt(inputs[4])
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocations", allocs)
	}
}

// benchShapes are the value streams the paired benchmarks convert: the
// benchmark's two generators (benchmark/workloads.go: fullDouble, which
// rewrite_bulk sends, and fitDouble) and random bit patterns, nearly all
// of which print in exponent form. Drawn at random, as on the wire, so
// that sign, digit count and magnitude are not something a branch
// predictor learns from the previous value.
var benchShapes = []struct {
	name string
	draw func(*rand.Rand) float64
}{
	{"fixed17", func(rng *rand.Rand) float64 { return (rng.Float64()*2 - 1) * 1e6 }},
	{"short", func(rng *rand.Rand) float64 { return float64(rng.Int63n(1e15)) / 1e12 }},
	{"exp", func(rng *rand.Rand) float64 {
		for {
			if v := math.Float64frombits(rng.Uint64()); v == v && !math.IsInf(v, 0) {
				return v
			}
		}
	}},
}

func benchValues(draw func(*rand.Rand) float64) (vals [4096]float64, texts [4096][]byte) {
	rng := rand.New(rand.NewSource(20))
	for i := range vals {
		vals[i] = draw(rng)
		texts[i] = strconv.AppendFloat(nil, vals[i], 'G', -1, 64)
	}
	return
}

var sinkBytes []byte
var sinkFloat float64

// BenchmarkAppendDouble and BenchmarkParseDouble run the kernel and the
// strconv call it replaced over the same values in one run, and the
// strconv side reports the ratio of the two (x-kernel): a number that
// holds on a machine whose absolute ns/op does not.
func BenchmarkAppendDouble(b *testing.B) {
	for _, shape := range benchShapes {
		vals, _ := benchValues(shape.draw)
		buf := make([]byte, 0, MaxDoubleWidth)
		benchPair(b, shape.name, func(i int) {
			sinkBytes = AppendDouble(buf, vals[i%len(vals)])
		}, func(i int) {
			sinkBytes = strconv.AppendFloat(buf, vals[i%len(vals)], 'G', -1, 64)
		})
	}
}

func BenchmarkParseDouble(b *testing.B) {
	for _, shape := range benchShapes {
		_, texts := benchValues(shape.draw)
		benchPair(b, shape.name, func(i int) {
			sinkFloat, _ = ParseDouble(texts[i%len(texts)])
		}, func(i int) {
			sinkFloat, _ = strconv.ParseFloat(string(texts[i%len(texts)]), 64)
		})
	}
}

// BenchmarkAppendInt runs the int printer and strconv.AppendInt over
// the same values: full-range int32s and the short ints of a
// message's counters and coordinates.
func BenchmarkAppendInt(b *testing.B) {
	rng := rand.New(rand.NewSource(22))
	var full, short [4096]int32
	for i := range full {
		full[i], short[i] = int32(rng.Uint32()), int32(rng.Intn(2001)-1000)
	}
	buf := make([]byte, 0, MaxIntWidth)
	for _, shape := range []struct {
		name string
		vals *[4096]int32
	}{{"int32", &full}, {"short", &short}} {
		vals := shape.vals
		benchPair(b, shape.name, func(i int) {
			sinkBytes = AppendInt(buf, vals[i%len(vals)])
		}, func(i int) {
			sinkBytes = strconv.AppendInt(buf, int64(vals[i%len(vals)]), 10)
		})
	}
}

func benchPair(b *testing.B, name string, kernel, library func(i int)) {
	var kernelNs float64
	b.Run(name+"/kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			kernel(i)
		}
		kernelNs = float64(b.Elapsed()) / float64(b.N)
	})
	b.Run(name+"/strconv", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			library(i)
		}
		if kernelNs > 0 {
			b.ReportMetric(float64(b.Elapsed())/float64(b.N)/kernelNs, "x-kernel")
		}
	})
}
