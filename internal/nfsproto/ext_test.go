package nfsproto

import (
	"testing"
	"testing/quick"

	"renonfs/internal/mbuf"
	"renonfs/internal/xdr"
)

func TestLeaseArgsRoundTrip(t *testing.T) {
	f := func(mode bool, dur, port uint16) bool {
		in := &LeaseArgs{
			File: MakeFH(1, 42, 7), Mode: LeaseRead,
			Duration: uint32(dur), CallbackPort: uint32(port),
		}
		if mode {
			in.Mode = LeaseWrite
		}
		c := &mbuf.Chain{}
		in.Encode(xdr.NewEncoder(c))
		out, err := DecodeLeaseArgs(xdr.NewDecoder(c))
		return err == nil && *out == *in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLeaseResRoundTrip(t *testing.T) {
	attr := &Fattr{Type: TypeReg, Size: 999, FileID: 42, BlockSize: 8192}
	in := &LeaseRes{Status: OK, Duration: 30, Attr: attr}
	c := &mbuf.Chain{}
	in.Encode(xdr.NewEncoder(c))
	out, err := DecodeLeaseRes(xdr.NewDecoder(c))
	if err != nil || out.Status != OK || out.Duration != 30 || *out.Attr != *attr {
		t.Fatalf("out = %+v, err = %v", out, err)
	}
	// TRYLATER carries no body.
	c2 := &mbuf.Chain{}
	(&LeaseRes{Status: ErrTryLater}).Encode(xdr.NewEncoder(c2))
	out2, err := DecodeLeaseRes(xdr.NewDecoder(c2))
	if err != nil || out2.Status != ErrTryLater || out2.Attr != nil {
		t.Fatalf("out2 = %+v, err = %v", out2, err)
	}
}

func TestVacatedArgsRoundTrip(t *testing.T) {
	in := &VacatedArgs{File: MakeFH(9, 8, 7)}
	c := &mbuf.Chain{}
	in.Encode(xdr.NewEncoder(c))
	out, err := DecodeVacatedArgs(xdr.NewDecoder(c))
	if err != nil || out.File != in.File {
		t.Fatalf("out = %+v, err = %v", out, err)
	}
}

func TestReaddirLookResRoundTrip(t *testing.T) {
	in := &ReaddirLookRes{
		Status: OK,
		Entries: []LookEntry{
			{Entry: DirEntry{FileID: 3, Name: "a.c", Cookie: 1},
				File: MakeFH(1, 3, 1), Attr: Fattr{Type: TypeReg, Size: 10, BlockSize: 8192}},
			{Entry: DirEntry{FileID: 4, Name: "subdir", Cookie: 2},
				File: MakeFH(1, 4, 1), Attr: Fattr{Type: TypeDir, BlockSize: 8192}},
		},
		EOF: true,
	}
	c := &mbuf.Chain{}
	in.Encode(xdr.NewEncoder(c))
	out, err := DecodeReaddirLookRes(xdr.NewDecoder(c))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Entries) != 2 || !out.EOF {
		t.Fatalf("out = %+v", out)
	}
	for i := range in.Entries {
		if out.Entries[i] != in.Entries[i] {
			t.Fatalf("entry %d mismatch: %+v vs %+v", i, out.Entries[i], in.Entries[i])
		}
	}
}

func TestMountArgsResRoundTrip(t *testing.T) {
	in := &MntArgs{DirPath: "/export/home"}
	c := &mbuf.Chain{}
	in.Encode(xdr.NewEncoder(c))
	out, err := DecodeMntArgs(xdr.NewDecoder(c))
	if err != nil || out.DirPath != in.DirPath {
		t.Fatalf("out = %+v, err = %v", out, err)
	}

	res := &MntRes{Status: 0, File: MakeFH(1, 2, 3)}
	rout, err := DecodeMntRes(xdr.NewDecoder(encBytes(res.EncodeBytes)))
	if err != nil || rout.Status != 0 || rout.File != res.File {
		t.Fatalf("rout = %+v, err = %v", rout, err)
	}
	// Errno result has no handle.
	rout3, err := DecodeMntRes(xdr.NewDecoder(encBytes((&MntRes{Status: 13}).EncodeBytes)))
	if err != nil || rout3.Status != 13 {
		t.Fatalf("rout3 = %+v, err = %v", rout3, err)
	}
}

func TestMountListsRoundTrip(t *testing.T) {
	c := &mbuf.Chain{}
	e := xdr.NewEncoder(c)
	in := []MountEntry{{Host: "udp:0:1001", Dir: "/"}, {Host: "udp:0:1002", Dir: "/src"}}
	EncodeMountList(e, in)
	out, err := DecodeMountList(xdr.NewDecoder(c))
	if err != nil || len(out) != 2 || out[0] != in[0] || out[1] != in[1] {
		t.Fatalf("out = %+v, err = %v", out, err)
	}

	c2 := &mbuf.Chain{}
	e2 := xdr.NewEncoder(c2)
	exp := []ExportEntry{{Dir: "/", Groups: nil}, {Dir: "/src", Groups: []string{"eng", "ops"}}}
	EncodeExportList(e2, exp)
	eout, err := DecodeExportList(xdr.NewDecoder(c2))
	if err != nil || len(eout) != 2 {
		t.Fatalf("eout = %+v, err = %v", eout, err)
	}
	if eout[1].Dir != "/src" || len(eout[1].Groups) != 2 || eout[1].Groups[1] != "ops" {
		t.Fatalf("eout[1] = %+v", eout[1])
	}
}

func TestExtProcNames(t *testing.T) {
	if ProcName(ProcLease) != "lease" || ProcName(ProcReaddirLook) != "readdirlook" {
		t.Fatal("extension proc names wrong")
	}
	if ErrTryLater.String() != "NFSERR_TRYLATER" {
		t.Fatalf("trylater = %q", ErrTryLater.String())
	}
}
