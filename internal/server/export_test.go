package server

// MemoLen returns the number of bodies the server's id memo holds.
func (s *Server) MemoLen() int { return s.ids.Len() }
