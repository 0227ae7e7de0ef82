package fleet

// The external server tests speak the protocol by hand.

type MsgType = msgType

const (
	MsgHello    = msgHello
	MsgHelloAck = msgHelloAck
	MsgBatch    = msgBatch
	MsgAck      = msgAck
	MsgError    = msgError
)

var (
	AppendMessage  = appendMessage
	EncodeHello    = encodeHello
	DecodeHelloAck = decodeHelloAck
	ReadMessage    = readMessage
)
