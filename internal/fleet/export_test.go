package fleet

// The external server tests speak the protocol by hand.

const (
	MsgHello    = msgHello
	MsgHelloAck = msgHelloAck
	MsgAck      = msgAck
	MsgError    = msgError
)

var (
	EncodeHello    = encodeHello
	DecodeHelloAck = decodeHelloAck
	ReadMessage    = readMessage
)
