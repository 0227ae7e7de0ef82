package packet

// The external fuzz targets drive the layer decoders directly.

func (e *Ethernet) DecodeFromBytes(data []byte) error { return e.decodeFromBytes(data) }
func (ip *IPv4) DecodeFromBytes(data []byte) error    { return ip.decodeFromBytes(data) }
func (t *TCP) DecodeFromBytes(data []byte) error      { return t.decodeFromBytes(data) }
func (u *UDP) DecodeFromBytes(data []byte) error      { return u.decodeFromBytes(data) }
