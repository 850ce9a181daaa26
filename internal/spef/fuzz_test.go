package spef

import (
	"bytes"
	"strings"
	"testing"

	"xtverify/internal/dsp"
	"xtverify/internal/extract"
)

// FuzzReadSPEF throws arbitrary byte streams at the SPEF parser. Parse must
// either return a typed error or a File whose accessors are safe to walk —
// never panic. Seeds include a real Write round-trip output so coverage
// starts from the grammar the writer emits, plus handcrafted near-valid
// corpus entries targeting each section parser.
func FuzzReadSPEF(f *testing.F) {
	d, err := dsp.ParallelWires(3, 300, 1.2, []string{"INV_X2"}, "INV_X1")
	if err != nil {
		f.Fatal(err)
	}
	p, err := extract.Extract(d, extract.Tech025())
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, p); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	for _, seed := range []string{
		"",
		"*SPEF \"IEEE 1481-1998\"\n*DESIGN \"x\"\n",
		"*C_UNIT 1 FF\n*R_UNIT 1 OHM\n",
		"*C_UNIT 1 XX\n",
		"*NAME_MAP\n*1 netA\n*2\n",
		"*D_NET n1 1.5\n*CONN\n*I u1:A I *N n1:0\n*END\n",
		"*D_NET n1 1.5\n*CAP\n1 n1:0 2.0\n2 n1:0 n2:1 0.5\n*END\n",
		"*D_NET n1 1.5\n*RES\n1 n1:0 n1:1 12.5\n*END\n",
		"*D_NET n1 nan\n",
		"*D_NET n1 1e309\n",
		"*CAP\n1 n1:0 2.0\n",
		"*D_NET n1 1.5\n*CAP\n1 n1: 2.0\n*END\n",
		"*D_NET n1 1.5\n*RES\n1 : : x\n*END\n",
		"*I u1:A I *N n1:0\n",
		"stray data\n",
		"*D_NET *7 1.0\n*END\n*NAME_MAP\n*7 mapped\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		file, err := Parse(strings.NewReader(string(data)))
		if err != nil {
			if file != nil {
				t.Fatalf("Parse returned both a file and error %v", err)
			}
			return
		}
		// A successful parse must yield a walkable structure.
		_ = file.Stats()
		_ = file.NetNamesSorted()
		for _, n := range file.Nets {
			if _, ok := file.NetByName(n.Name); !ok {
				t.Fatalf("net %q not resolvable via NetByName", n.Name)
			}
		}
	})
}
