"""Byte-identity of the default CLI outputs.

Each case pins the SHA-256 of one command's stdout, so a refactor of
the CLI or of the code behind it must keep every byte. The digests
depend on the floating-point results of numpy and the platform's libm;
change one only for a deliberate output change, and say so in
CHANGES.md.
"""

import hashlib

import pytest

from curved_landau import cli

GOLDEN = [
    ("spectrum --model h3 --B 5 --two-m=-9..9 --n 0..5",
     "09da9d86afc220b72e8b3d96fc605aa03e19d17a8fbf9b8dd727a8602cf2c0c9"),
    ("spectrum --model h3 --B 2.5 --M 1 --two-m=-3..3 --n 0..3 --rho 2.5",
     "b3be9d323add642e12021fcc3bddae40deb589e6585e90822e8f57dc6f7b459b"),
    ("spectrum --model h3 --B -4 --two-m=-5..5 --n 0..4",
     "cb0c520dde58bec5b88d34b49e83ba771a807dc6173253262127d373bebfa8ce"),
    ("spectrum --model s3 --B 2.5 --M 1.5 --two-m=-5..5 --n 0..3 --nz 0..2",
     "5a90b6024185f29c9063da5a3848111cfaf6fa6ab4012b71f06fd0667577c702"),
    ("spectrum --model s3 --B 1 --M 2 --two-m=-1..3 --n 0..2 --nz 0..1 "
     "--rho 3",
     "48068f9f7acfc3df805439e35594af68535d7bec4c0da4ed07bc4c905e33fc07"),
    ("spectrum --model s3 --B -2 --two-m=-3..3 --n 0..3",
     "54e817c28e7af00deeadf5c69b77c51492c42b9ca76dfdc87cb0a8c2ea8399be"),
    ("spectrum --model s3 --B 2.5 --M 1.5 --two-m=-3..3 --n 0..2 --nz 0..1 "
     "--format json",
     "c8668d22fa7c5f89cc1857382f3b42607c542c10f32d18bf1ada0d035d70a176"),
    ("regions --model h3 --B 5 --two-m=-11..11 --n 0..6",
     "239089a0b9d2f384e3d47e01bc1b5da491286dd83e7de58b65d77b6a194d6ffb"),
    ("regions --model h3 --B -3 --two-m=-7..7 --n 0..4",
     "6e09a416650a004e6e5e3d53a0292a70d642aec8d7f80069c0918527264cf087"),
    ("regions --model s3 --B 2 --two-m=-7..7 --n 0..4",
     "7d248b97bf3e642f2d57a48c58bc4d1b388b8f9fe89a93ee24b45487cf3ddb28"),
    ("regions --model s3 --B -2 --two-m=-7..7 --n 0..4",
     "d10836cc24e3f5023c43e53fb3da6ae866559b23d4f6b0d73f34c90568735d67"),
    ("wavefunction --model h3 --component r1 --B 5 --two-m=1 --n 1",
     "4118d496a5cb9e1d27f35dc0358f585d8635b242286754de4a2163a49414c300"),
    ("wavefunction --model h3 --component r2 --B 5 --two-m=3 --n 2",
     "384d843dd2fc6715092912dfbed4df88eb74801346cfb694f188ef4dde1d346e"),
    ("wavefunction --model h3 --component z1 --B 5 --two-m=1 --n 1 --p 0.7",
     "de0e198a111c58e7bb0ccd3a5982857e7129c5492087d28e4364e9052d9e999b"),
    ("wavefunction --model h3 --component z2 --B 5 --two-m=1 --n 1 --p 1.3",
     "4f14223cbe5a06b44bf3a9e8d75516844882d46168e8909d5bcb36cc9ae6ce8c"),
    ("wavefunction --model s3 --component r1 --B 2.5 --two-m=1 --n 1",
     "4e9ad18ea8779f41ef73bbd9d864104ab070b1fb2bb34093ffc4bcbddb2932f5"),
    ("wavefunction --model s3 --component r2 --B 2.5 --two-m=-3 --n 2",
     "ba1bd395fb1a0a7594af349251f8a1bb4b7a555895d07e246ceee77031b3058d"),
    ("wavefunction --model s3 --component z1 --B 2.5 --two-m=1 --n 1 --nz 2",
     "e0e4104c5dbd0de316c0801d224a21ce01e510bf649b47f1a82e9082586e96f0"),
    ("wavefunction --model s3 --component z2 --B 2.5 --two-m=1 --n 1 --nz 1",
     "fb064892bc84500b67ceb796fbda715ea864b95c918dd0d111d2f7408ee7e76b"),
]


@pytest.mark.parametrize("command, digest", GOLDEN,
                         ids=[c for c, _ in GOLDEN])
def test_default_output_is_byte_identical(capsys, command, digest):
    code = cli.main(command.split())
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
