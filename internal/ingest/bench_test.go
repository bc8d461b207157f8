package ingest

import (
	"strconv"
	"strings"
	"testing"

	"github.com/reprolab/swole/internal/storage"
)

// benchRows is the batch size per benchmark op.
const benchRows = 100000

func benchDoc(quoted bool) (Schema, []byte) {
	dict := storage.NewDict([]string{"red", "green", "blue", "cyan"})
	schema := Schema{
		{Name: "a", Kind: Int64},
		{Name: "b", Kind: Int64},
		{Name: "p", Kind: Decimal},
		{Name: "d", Kind: Date},
		{Name: "s", Kind: Dict, Dict: dict},
	}
	var sb strings.Builder
	colors := []string{"red", "green", "blue", "cyan"}
	for i := 0; i < benchRows; i++ {
		sb.WriteString(strconv.Itoa(i % 1000))
		sb.WriteByte(',')
		sb.WriteString(strconv.Itoa(i))
		sb.WriteString(",19.")
		sb.WriteString(strconv.Itoa(10 + i%90))
		sb.WriteString(",2020-")
		sb.WriteString(strconv.Itoa(1 + i%12))
		sb.WriteString("-")
		sb.WriteString(strconv.Itoa(1 + i%28))
		sb.WriteByte(',')
		if quoted {
			sb.WriteString(`"` + colors[i%4] + `"`)
		} else {
			sb.WriteString(colors[i%4])
		}
		sb.WriteByte('\n')
	}
	return schema, []byte(sb.String())
}

// warmKernel compiles the kernel of one benchmarked path and parses its
// document once, which grows every buffer to capacity: "plain", "quoted"
// (every dictionary value quoted) or "skip" (every third row malformed under
// the Skip policy). It returns the kernel, the document and the rows a batch
// accepts.
func warmKernel(tb testing.TB, path string) (*Kernel, []byte, int) {
	tb.Helper()
	schema, doc := benchDoc(path == "quoted")
	policy, accepted := Strict, benchRows
	if path == "skip" {
		lines := strings.Split(strings.TrimSuffix(string(doc), "\n"), "\n")
		for i := 2; i < len(lines); i += 3 {
			lines[i] = "not,valid"
			accepted--
		}
		doc, policy = []byte(strings.Join(lines, "\n")+"\n"), Skip
	}
	k, err := NewKernel(schema, policy)
	if err != nil {
		tb.Fatal(err)
	}
	if err := k.Parse(doc); err != nil {
		tb.Fatal(err)
	}
	return k, doc, accepted
}

// benchKernel times the warm kernel path: one compiled kernel re-used across
// batches via Reset.
func benchKernel(b *testing.B, path string) {
	k, doc, _ := warmKernel(b, path)
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Reset()
		if err := k.Parse(doc); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(benchRows*b.N)/b.Elapsed().Seconds(), "rows/s")
}

func BenchmarkIngestKernel(b *testing.B)       { benchKernel(b, "plain") }
func BenchmarkIngestKernelQuoted(b *testing.B) { benchKernel(b, "quoted") }
func BenchmarkIngestKernelSkip(b *testing.B)   { benchKernel(b, "skip") }

// TestWarmBatchZeroAlloc: the warm parse path reuses the kernel's carry
// buffer, column builders and dictionary probe, so a batch allocates nothing
// on any benchmarked path, and accepts what it should.
func TestWarmBatchZeroAlloc(t *testing.T) {
	for _, path := range []string{"plain", "quoted", "skip"} {
		k, doc, accepted := warmKernel(t, path)
		allocs := testing.AllocsPerRun(3, func() {
			k.Reset()
			if err := k.Parse(doc); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %.1f allocs per warm batch, want 0", path, allocs)
		}
		if k.Accepted() != accepted {
			t.Errorf("%s: accepted %d rows, want %d", path, k.Accepted(), accepted)
		}
	}
}
