"""Fresh names never repeat a reserved or already-issued name."""

from repro.util.namer import Namer


def test_fresh_skips_reserved_suffixed_name():
    assert Namer(reserved={"t", "t_2"}).fresh("t") == "t_3"


def test_fresh_skips_names_issued_under_another_hint():
    namer = Namer()
    assert namer.fresh("t_2") == "t_2"
    assert namer.fresh("t") == "t"
    assert namer.fresh("t") == "t_3"


def test_reserve_blocks_later_fresh():
    namer = Namer()
    namer.reserve("p")
    assert namer.fresh("p") == "p_2"
    namer.reserve("p_3")
    assert namer.fresh("p") == "p_4"
