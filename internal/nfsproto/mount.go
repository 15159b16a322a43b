package nfsproto

import (
	"fmt"

	"renonfs/internal/xdr"
)

// The MOUNT protocol (RFC 1094 Appendix A): a separate RPC program through
// which clients obtain the file handle of an exported directory's root.
// NFS itself cannot hand out the first handle — LOOKUP needs a directory
// handle to start from — so every real mount begins here.
const (
	MountProgram = 100005
	MountVersion = 1

	MountProcNull    = 0
	MountProcMnt     = 1
	MountProcDump    = 2
	MountProcUmnt    = 3
	MountProcUmntAll = 4
	MountProcExport  = 5
)

// MountMaxPath bounds directory path arguments.
const MountMaxPath = 1024

// MntArgs is the MNT/UMNT argument: the export path.
type MntArgs struct{ DirPath string }

// Encode marshals the argument.
func (a *MntArgs) Encode(e *xdr.Encoder) { e.PutString(a.DirPath) }

// DecodeMntArgs unmarshals the path argument.
func DecodeMntArgs(d *xdr.Decoder) (*MntArgs, error) {
	s, err := d.String()
	if err != nil {
		return nil, err
	}
	if len(s) > MountMaxPath {
		return nil, fmt.Errorf("%w: mount path %d bytes", ErrBadProto, len(s))
	}
	return &MntArgs{DirPath: s}, nil
}

// MntRes is the MNT result: a unix error status, then the handle.
type MntRes struct {
	Status uint32 // 0 or a unix errno (the mount protocol predates stat)
	File   FH
}

// DecodeMntRes unmarshals the MNT result.
func DecodeMntRes(d *xdr.Decoder) (*MntRes, error) {
	s, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	r := &MntRes{Status: s}
	if s != 0 {
		return r, nil
	}
	p, err := d.FixedOpaque(FHSize)
	if err != nil {
		return nil, err
	}
	copy(r.File[:], p)
	return r, nil
}

// MountEntry is one row of the DUMP result (who has what mounted).
type MountEntry struct {
	Host string
	Dir  string
}

// EncodeMountList marshals the DUMP result's entry list.
func EncodeMountList(e *xdr.Encoder, entries []MountEntry) {
	for _, ent := range entries {
		e.PutBool(true)
		e.PutString(ent.Host)
		e.PutString(ent.Dir)
	}
	e.PutBool(false)
}

// DecodeMountList unmarshals the DUMP result.
func DecodeMountList(d *xdr.Decoder) ([]MountEntry, error) {
	var out []MountEntry
	for {
		more, err := d.Bool()
		if err != nil {
			return nil, err
		}
		if !more {
			return out, nil
		}
		var ent MountEntry
		if ent.Host, err = d.String(); err != nil {
			return nil, err
		}
		if ent.Dir, err = d.String(); err != nil {
			return nil, err
		}
		out = append(out, ent)
		if len(out) > 4096 {
			return nil, ErrBadProto
		}
	}
}

// ExportEntry is one row of the EXPORT result: a path and the groups
// allowed to mount it (empty means everyone).
type ExportEntry struct {
	Dir    string
	Groups []string
}

// EncodeExportList marshals the EXPORT result.
func EncodeExportList(e *xdr.Encoder, entries []ExportEntry) {
	for _, ent := range entries {
		e.PutBool(true)
		e.PutString(ent.Dir)
		for _, g := range ent.Groups {
			e.PutBool(true)
			e.PutString(g)
		}
		e.PutBool(false)
	}
	e.PutBool(false)
}

// DecodeExportList unmarshals the EXPORT result.
func DecodeExportList(d *xdr.Decoder) ([]ExportEntry, error) {
	var out []ExportEntry
	for {
		more, err := d.Bool()
		if err != nil {
			return nil, err
		}
		if !more {
			return out, nil
		}
		var ent ExportEntry
		if ent.Dir, err = d.String(); err != nil {
			return nil, err
		}
		for {
			g, err := d.Bool()
			if err != nil {
				return nil, err
			}
			if !g {
				break
			}
			grp, err := d.String()
			if err != nil {
				return nil, err
			}
			ent.Groups = append(ent.Groups, grp)
		}
		out = append(out, ent)
		if len(out) > 1024 {
			return nil, ErrBadProto
		}
	}
}
