package packet

// The external fuzz targets drive the layer decoders directly.

func (e *Ethernet) DecodeFromBytes(data []byte) error { return e.decodeFromBytes(data) }
func (t *TCP) DecodeFromBytes(data []byte) error      { return t.decodeFromBytes(data) }
func (u *UDP) DecodeFromBytes(data []byte) error      { return u.decodeFromBytes(data) }
func (d *DNS) DecodeFromBytes(data []byte) error      { return d.decodeFromBytes(data) }
